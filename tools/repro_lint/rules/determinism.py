"""DET rules: randomness, dtype and row-order determinism.

The reproduction's equivalence suites hold every execution layout —
shards, threads, spill — bitwise-identical to the sequential
reference.  Randomness that does not flow through named substreams,
id columns narrower than their capacity, and code that assumes
time-sorted trace rows all break that equality in ways the test zoo
catches only probabilistically; these rules make the conventions
machine-checked.
"""

from __future__ import annotations

import ast
import re

from ..modinfo import dotted_name
from ..registry import Rule, register_rule

__all__ = ["LegacyNumpyRandom", "AmbientEntropy", "HardcodedIdDtype", "TimeSortedAssumption"]

#: modern numpy.random surface that is *allowed*: explicit generators and
#: seeding machinery.  Everything else on numpy.random is the legacy
#: global-state API.
_MODERN_NP_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: ambient entropy / wall-clock sources that leak irreproducibility into
#: simulation state (DET002).  time.perf_counter is deliberately absent:
#: measuring wall time is fine, feeding it into a simulation is not.
#: time.monotonic/monotonic_ns *are* listed: telemetry is the one
#: legitimate consumer, and it reads them only through the audited
#: helpers in repro.telemetry.clock (exempted per-path in pyproject), so
#: a monotonic read anywhere else is a determinism smell.
_AMBIENT_CALLS = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "time.monotonic": "monotonic-clock time",
    "time.monotonic_ns": "monotonic-clock time",
    "os.urandom": "OS entropy",
    "uuid.uuid4": "OS entropy",
}


@register_rule
class LegacyNumpyRandom(Rule):
    code = "DET001"
    name = "legacy-numpy-random"
    invariant = "no numpy legacy global-state RNG (np.random.seed / np.random.rand / ...)"
    rationale = (
        "global RNG state is shared by every caller, so any new consumer "
        "or reordering perturbs all other draws; named substreams keep "
        "every shard layout bitwise-identical"
    )

    def visit_Call(self, node: ast.Call) -> None:
        qual = self.resolve(node.func)
        if qual and qual.startswith("numpy.random."):
            attr = qual.removeprefix("numpy.random.")
            if "." not in attr and attr not in _MODERN_NP_RANDOM:
                self.report(
                    node,
                    f"legacy global-state RNG call np.random.{attr}(); draw "
                    "from a named substream (netsim.rng.RngFactory) or an "
                    "explicit np.random.Generator instead",
                )
        self.generic_visit(node)


@register_rule
class AmbientEntropy(Rule):
    code = "DET002"
    name = "ambient-entropy"
    invariant = (
        "simulation/engine code draws no ambient randomness: no stdlib "
        "random, wall-clock time, OS entropy, or np.random.default_rng "
        "construction outside netsim.rng"
    )
    rationale = (
        "every stochastic draw must be a pure function of (seed, stream "
        "name) so that shard layout, scheduling and re-runs cannot change "
        "results; ad-hoc Generator construction bypasses the audited "
        "substream naming"
    )

    def visit_Call(self, node: ast.Call) -> None:
        qual = self.resolve(node.func)
        if qual:
            if qual.startswith("random."):
                self.report(
                    node,
                    f"stdlib {qual}() is seeded from OS entropy; route "
                    "randomness through netsim.rng substreams or an explicit "
                    "Generator parameter",
                )
            elif qual in _AMBIENT_CALLS:
                self.report(
                    node,
                    f"{qual}() injects {_AMBIENT_CALLS[qual]} into simulation "
                    "state; derive values from the run's seed instead",
                )
            elif qual == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    self.report(
                        node,
                        "argless np.random.default_rng() seeds from OS "
                        "entropy; derive the generator from the run's seed "
                        "via netsim.rng",
                    )
                else:
                    self.report(
                        node,
                        "construct Generators through the audited helpers in "
                        "netsim.rng (RngFactory.stream / seeded_rng) rather "
                        "than ad-hoc np.random.default_rng(...)",
                    )
        self.generic_visit(node)


#: names that mark a value as carrying host/relay/method ids.
_ID_NAME_RE = re.compile(r"host|relay|src|dst|method_id|\bhid\b", re.IGNORECASE)

#: numpy dtypes too narrow to hold arbitrary host counts.  int64 is
#: exempt: it can never truncate an id, only waste bytes.
_NARROW = {"numpy.int16", "numpy.int32"}


def _target_names(node: ast.AST):
    """Bindable names of an assignment target (flattening tuples)."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.Subscript):
        yield from _target_names(node.value)
    elif isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _target_names(elt)
    elif isinstance(node, ast.Starred):
        yield from _target_names(node.value)


@register_rule
class HardcodedIdDtype(Rule):
    code = "DET003"
    name = "hardcoded-id-dtype"
    invariant = (
        "id columns use the capacity-chosen trace.records.id_dtype(), "
        "never a hard-coded np.int16/np.int32"
    )
    rationale = (
        "hard-coded narrow dtypes silently truncate ids past 32k/2G hosts "
        "and desynchronise file formats from the id_dtype chooser that "
        "keeps golden fingerprints byte-identical"
    )

    def _narrow_dtypes_in(self, node: ast.AST):
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Attribute, ast.Name)):
                qual = self.resolve(sub)
                # int16 is reported unconditionally by visit_Attribute;
                # the id-context check adds the int32 cases on top.
                if qual in _NARROW and qual != "numpy.int16":
                    yield sub, qual

    def _check_id_context(self, context_name: str, value: ast.AST) -> None:
        if not _ID_NAME_RE.search(context_name):
            return
        for sub, qual in self._narrow_dtypes_in(value):
            short = qual.replace("numpy.", "np.")
            self.report(
                sub,
                f"id-like value {context_name!r} built with hard-coded "
                f"{short}; use repro.trace.records.id_dtype(capacity) so the "
                "column widens with the mesh",
            )

    def _check_int16(self, node: ast.AST) -> None:
        if self.resolve(node) == "numpy.int16":
            self.report(
                node,
                "np.int16 is the id-column dtype only id_dtype() may choose; "
                "call repro.trace.records.id_dtype(capacity) instead",
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_int16(node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._check_int16(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            for name in _target_names(target):
                self._check_id_context(name, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            for name in _target_names(node.target):
                self._check_id_context(name, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        for name in _target_names(node.target):
            self._check_id_context(name, node.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg is not None:
                self._check_id_context(kw.arg, kw.value)
        self.generic_visit(node)


_SORT_WRAPPERS = {"numpy.sort", "sorted", "numpy.unique"}


@register_rule
class TimeSortedAssumption(Rule):
    code = "DET004"
    name = "time-sorted-assumption"
    invariant = (
        "no binary search on a trace time column without an explicit sort "
        "(canonical row order is ascending probe_id, not time)"
    )
    rationale = (
        "traces serialise sorted by probe_id so every shard layout merges "
        "identically; searchsorted over t_send silently returns garbage on "
        "that order unless the caller sorts first"
    )

    def _is_sorted_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            qual = self.resolve(node.func)
            raw = dotted_name(node.func)
            if qual in _SORT_WRAPPERS or raw in _SORT_WRAPPERS or raw == "sorted":
                return True
        return False

    def _mentions_time_column(self, node: ast.AST) -> ast.AST | None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in self.ctx.config.time_columns:
                return sub
        return None

    def _check_operand(self, call: ast.Call, operand: ast.AST) -> None:
        if self._is_sorted_expr(operand):
            return
        hit = self._mentions_time_column(operand)
        if hit is not None:
            col = hit.attr if isinstance(hit, ast.Attribute) else "time"
            self.report(
                call,
                f"searchsorted over the {col!r} column assumes time-sorted "
                "rows, but canonical trace order is ascending probe_id; "
                "sort explicitly (np.sort) before searching",
            )

    def visit_Call(self, node: ast.Call) -> None:
        qual = self.resolve(node.func)
        if qual == "numpy.searchsorted" and node.args:
            self._check_operand(node, node.args[0])
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "searchsorted"
            and qual is None
        ):
            self._check_operand(node, node.func.value)
        self.generic_visit(node)
