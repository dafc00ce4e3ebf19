"""repro-lint: AST-based determinism & shard-purity analyzer.

The reproduction's headline guarantee — every sharded/threaded/spilled
run is bitwise-identical to the sequential reference — rests on
conventions no general-purpose linter checks: named per-host RNG
substreams, canonical ascending-``probe_id`` row order, capacity-chosen
id dtypes, and read-only shared state inside shard kernels.  This
package makes that contract machine-enforced.

Each rule is an independent :class:`ast.NodeVisitor` registered under a
stable code (``DET001``, ``SHARD001``, ...); the engine runs the
enabled rules over a file set, applies per-path configuration from
``pyproject.toml`` (``[tool.repro-lint]``) and honours inline
suppressions of the form::

    x = legacy_call()  (followed by)  repro-lint: disable=DET001 -- why

written as a ``#`` comment on the offending line.  A suppression
*requires* the ``-- reason`` clause; a bare disable is itself an error
(``LNT002``), so every escape hatch carries a written justification.

Run it as ``python -m repro_lint <paths...>`` (flake8-style
``path:line:col: CODE message`` output, exit 1 on findings), or use
:func:`lint_sources` / :func:`lint_paths` programmatically.
"""

from __future__ import annotations

from .config import DEFAULT_SRC_ROOTS, LintConfig, load_config
from .engine import Finding, lint_paths, lint_sources
from .registry import RULES, Rule, all_codes, register_rule

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SRC_ROOTS",
    "Finding",
    "LintConfig",
    "RULES",
    "Rule",
    "all_codes",
    "lint_paths",
    "lint_sources",
    "load_config",
    "register_rule",
    "__version__",
]
