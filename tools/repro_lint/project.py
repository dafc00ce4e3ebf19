"""Project model: the analyzed file set and its cross-file facts.

Most rules are local to one file, but the shard-purity rules are not:
``pool.submit(..., kernel=probe_rows, worker=_probe_task)`` in
``repro.engine.sharding`` registers a function *defined in*
``repro.core.reactive`` as a shard kernel.  The project pass therefore runs first, over every file:
it derives each file's module name from the configured source roots,
collects every function definition (with its nesting level), resolves
the callables handed to the sharded dispatch, and hands the resulting
registry to the per-file rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .config import LintConfig
from .modinfo import DefRecord, ModuleInfo, dotted_name
from .registry import Finding

__all__ = ["ParsedFile", "Project", "module_name_for"]

#: keywords of the sharded dispatch whose values run in worker processes
#: and must therefore be module-level (SHARD002): worker is mapped over
#: shard ranges by the process pool, initializer seeds each worker.
EXECUTOR_KEYWORDS = ("worker", "initializer")

#: keywords registering a callable as a shard kernel (SHARD001): both the
#: serial/thread kernel and the process worker evaluate shards against
#: shared read-only state.
KERNEL_KEYWORDS = ("kernel", "worker")

#: positional layout of run_shards(plan, ranges, kernel, worker,
#: initializer, ...) for call sites that skip the keywords.
RUN_SHARDS_POSITIONS = {2: "kernel", 3: "worker", 4: "initializer"}


def module_name_for(path: str, src_roots: tuple[str, ...]) -> tuple[str, bool]:
    """(dotted module name, is_package) for a root-relative posix path.

    The longest matching source root is stripped; outside every root the
    path itself (slashes to dots) is used, so resolution still works for
    scripts in the repository root.
    """
    best = ""
    for root in src_roots:
        root = root.strip("/")
        if root in ("", "."):
            continue
        if path == root or path.startswith(root + "/"):
            if len(root) > len(best):
                best = root
    rel = path[len(best) + 1 :] if best else path
    is_package = rel.endswith("__init__.py")
    rel = rel.removesuffix("__init__.py").removesuffix(".py").strip("/")
    return rel.replace("/", "."), is_package


@dataclass
class ParsedFile:
    path: str  # root-relative posix path
    source: str
    tree: ast.Module
    modinfo: ModuleInfo


@dataclass
class Project:
    """Everything the rules may need beyond their own file."""

    files: dict[str, ParsedFile] = field(default_factory=dict)
    #: qualified name -> definition record (last one wins on collision)
    defs: dict[str, DefRecord] = field(default_factory=dict)
    #: qualified names registered as shard kernels via the dispatch
    shard_kernels: set[str] = field(default_factory=set)
    parse_errors: list[Finding] = field(default_factory=list)

    @classmethod
    def build(cls, sources: dict[str, str], config: LintConfig) -> "Project":
        project = cls()
        for path, source in sources.items():
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                project.parse_errors.append(
                    Finding(
                        path,
                        exc.lineno or 1,
                        (exc.offset or 0) or 1,
                        "LNT000",
                        f"cannot parse file: {exc.msg}",
                    )
                )
                continue
            module, is_package = module_name_for(path, config.src_roots)
            info = ModuleInfo.collect(tree, module, path, is_package)
            project.files[path] = ParsedFile(path, source, tree, info)
            for rec in info.defs:
                project.defs[rec.qualname] = rec
        for parsed in project.files.values():
            project._collect_kernels(parsed)
        return project

    def _collect_kernels(self, parsed: ParsedFile) -> None:
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw_name, value in kernel_arguments(node):
                if kw_name not in KERNEL_KEYWORDS:
                    continue
                qual = parsed.modinfo.resolve(value)
                if qual is not None:
                    self.shard_kernels.add(qual)


def kernel_arguments(call: ast.Call):
    """(role, value) pairs of sharded-dispatch callables at one call site.

    Yields the ``kernel=``/``worker=``/``initializer=`` keywords of any
    call, the positional equivalents of a ``run_shards(...)`` call, and
    the ``initializer`` of a ``ProcessPoolExecutor(...)`` construction.
    """
    roles = set(KERNEL_KEYWORDS) | set(EXECUTOR_KEYWORDS)
    for kw in call.keywords:
        if kw.arg in roles:
            yield kw.arg, kw.value
    callee = dotted_name(call.func)
    tail = callee.rsplit(".", 1)[-1] if callee else None
    if tail == "run_shards":
        for idx, role in RUN_SHARDS_POSITIONS.items():
            if idx < len(call.args):
                yield role, call.args[idx]
    elif tail == "ProcessPoolExecutor":
        # ProcessPoolExecutor(max_workers, mp_context, initializer, initargs)
        if len(call.args) >= 3:
            yield "initializer", call.args[2]
