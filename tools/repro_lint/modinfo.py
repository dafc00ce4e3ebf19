"""Per-module import and definition tracking.

Rules never match on surface spelling: ``np.random.seed``,
``numpy.random.seed`` and ``from numpy.random import seed`` must all
resolve to the same qualified name before a verdict.  :class:`ModuleInfo`
records what every top-level name in a module is bound to (imports,
module-level ``def``/``class``) and resolves attribute chains against
that map.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["ModuleInfo", "dotted_name", "root_name"]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def root_name(node: ast.AST) -> str | None:
    """The root Name of an attribute/subscript chain (``a`` of ``a.b[0].c``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@dataclass
class ModuleInfo:
    """Name bindings of one module, for qualified-name resolution."""

    module: str  # dotted module name, '' when unknown
    path: str
    is_package: bool = False  # path is an __init__.py
    imports: dict[str, str] = field(default_factory=dict)  # alias -> qualified
    module_defs: set[str] = field(default_factory=set)  # top-level def/class names

    @classmethod
    def collect(cls, tree: ast.Module, module: str, path: str, is_package: bool = False):
        info = cls(module=module, path=path, is_package=is_package)
        info._walk_imports(tree)
        info._walk_defs(tree)
        return info

    # -- collection --------------------------------------------------------

    def _relative_base(self, level: int) -> str:
        """The package a ``from .`` import of ``level`` dots refers to."""
        parts = self.module.split(".") if self.module else []
        # inside a package __init__, one dot means the package itself
        drop = level - 1 if self.is_package else level
        if drop > 0:
            parts = parts[:-drop] if drop <= len(parts) else []
        return ".".join(parts)

    def _walk_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        # `import a.b.c` binds `a`; the chain resolves on use
                        top = alias.name.split(".")[0]
                        self.imports[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    rel = self._relative_base(node.level)
                    base = f"{rel}.{base}".strip(".") if base else rel
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.imports[bound] = f"{base}.{alias.name}" if base else alias.name

    def _walk_defs(self, node: ast.AST) -> None:
        """Record the top-level names ``node`` binds: ``def``, ``class``
        and plain assignments, also under module-level ``if``/``try``."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.module_defs.add(child.name)
            elif isinstance(child, ast.Assign):
                for t in child.targets:
                    if isinstance(t, ast.Name):
                        self.module_defs.add(t.id)
            else:
                self._walk_defs(child)

    # -- resolution --------------------------------------------------------

    def resolve(self, node: ast.AST) -> str | None:
        """Qualified dotted name of a Name/Attribute expression.

        The root name is looked up in the import map first, then in the
        module's own top-level definitions (qualified by module name).
        Unresolvable roots (locals, parameters) yield None.
        """
        raw = dotted_name(node)
        if raw is None:
            return None
        root, _, rest = raw.partition(".")
        if root in self.imports:
            base = self.imports[root]
            return f"{base}.{rest}" if rest else base
        if root in self.module_defs and self.module:
            return f"{self.module}.{raw}"
        return None
