"""SHARD rules: purity of shard kernels.

The engine's equivalence guarantee assumes shard kernels are pure
functions of ``(plan, host_lo, host_hi)``: every shard reads the same
shared :class:`Network`/substrate/plan and writes only its own outputs.
A kernel that mutates shared state makes results depend on shard order
and executor.  Kernel identity comes from the project pass: any
callable handed to the sharded dispatch as ``kernel=``/``worker=`` (see
:mod:`repro_lint.project`) is a kernel.
"""

from __future__ import annotations

import ast

from ..modinfo import root_name
from ..registry import Rule, register_rule

__all__ = ["ShardKernelPurity"]


def _flatten_targets(node: ast.AST):
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _flatten_targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _flatten_targets(node.value)
    else:
        yield node


def _is_pure_chain(node: ast.AST) -> bool:
    """True for Name/Attribute/Subscript chains with no calls inside."""
    while True:
        if isinstance(node, ast.Name):
            return True
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            return False


@register_rule
class ShardKernelPurity(Rule):
    code = "SHARD001"
    name = "shard-kernel-purity"
    invariant = (
        "shard kernels never assign to attributes/items of their shared "
        "parameters (plan, Network, substrate) or write module globals"
    )
    rationale = (
        "shards run concurrently against one read-only plan; a mutation "
        "makes the trace depend on shard layout and executor, breaking "
        "the bitwise sharded==sequential guarantee"
    )

    def visit_Module(self, node: ast.Module) -> None:
        module = self.ctx.modinfo.module
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module}.{child.name}" if module else child.name
                if qual in self.ctx.project.shard_kernels:
                    self._check_kernel(child)

    # -- per-kernel purity check ------------------------------------------

    def _check_kernel(self, fn) -> None:
        params = {p.arg for p in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)}
        tainted = self._taint(fn, params)
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    for leaf in _flatten_targets(target):
                        self._check_store(fn, leaf, tainted, node)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._check_store(fn, target, tainted, node)
            elif isinstance(node, ast.Global):
                self._check_global(fn, node)

    def _check_store(self, fn, target: ast.AST, tainted: set[str], stmt) -> None:
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return  # rebinding a local name is fine
        root = root_name(target)
        if root in tainted:
            self.report(
                stmt,
                f"shard kernel {fn.name!r} mutates shared state reachable "
                f"from parameter {root!r}; kernels must treat the plan/"
                "Network/substrate as read-only and write only shard-local "
                "arrays",
            )

    def _check_global(self, fn, node: ast.Global) -> None:
        assigned = set()
        for sub in ast.walk(fn):
            if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for t in targets:
                    for leaf in _flatten_targets(t):
                        if isinstance(leaf, ast.Name):
                            assigned.add(leaf.id)
            elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                assigned.add(sub.target.id)
        written = [n for n in node.names if n in assigned]
        for name in written:
            self.report(
                node,
                f"shard kernel {fn.name!r} writes module global {name!r}; "
                "results would depend on which shards ran before it",
            )

    def _taint(self, fn, params: set[str]) -> set[str]:
        """Parameters plus locals aliased (transitively) to parameter state.

        Only pure attribute/subscript chains propagate taint — call
        results are fresh objects — so ``network = plan.network`` taints
        ``network`` while ``mask = plan.sched.src[lo:hi] == 0`` does not
        taint anything new.
        """
        tainted = set(params)
        for _ in range(3):  # small fixpoint; alias chains are shallow
            grew = False
            for node in ast.walk(fn):
                if not isinstance(node, ast.Assign):
                    continue
                values = (
                    node.value.elts
                    if isinstance(node.value, (ast.Tuple, ast.List))
                    else [node.value]
                )
                targets = node.targets
                if len(targets) == 1 and isinstance(targets[0], (ast.Tuple, ast.List)):
                    target_leaves = list(targets[0].elts)
                else:
                    target_leaves = list(targets)
                pairs = (
                    zip(target_leaves, values)
                    if len(target_leaves) == len(values)
                    else [(t, node.value) for t in target_leaves]
                )
                for target, value in pairs:
                    if not isinstance(target, ast.Name):
                        continue
                    if _is_pure_chain(value) and root_name(value) in tainted:
                        if target.id not in tainted:
                            tainted.add(target.id)
                            grew = True
            if not grew:
                break
        return tainted

