"""Small AST conveniences shared by the rules."""

from __future__ import annotations

import ast
from collections import deque
from typing import Iterator

__all__ = [
    "NodeIndex",
    "ancestors",
    "call_name",
    "dotted_name",
    "literal_text",
    "is_sorted_call",
]


class NodeIndex:
    """One breadth-first pass over a parsed module: parent links plus
    every node filed under its type.

    Built once per file (:class:`repro.lint.runner.ModuleContext`), so a
    rule asks ``index.of(ast.Compare)`` and a flow analysis asks
    ``index.calls_under(func)`` instead of each re-walking the tree.
    Lists keep :func:`ast.walk` order.
    """

    def __init__(self, tree: ast.AST) -> None:
        tree._lint_parent = None  # type: ignore[attr-defined]
        self._by_type: dict[type, list[ast.AST]] = {}
        self._calls_under: dict[int, list[ast.Call]] | None = None
        todo = deque([tree])
        while todo:
            node = todo.popleft()
            self._by_type.setdefault(type(node), []).append(node)
            for child in ast.iter_child_nodes(node):
                child._lint_parent = node  # type: ignore[attr-defined]
                todo.append(child)

    def of(self, *types: type) -> list:
        """Every node of the given type(s), grouped in the order given."""
        if len(types) == 1:
            return self._by_type.get(types[0], [])
        return [n for t in types for n in self._by_type.get(t, ())]

    @property
    def functions(self) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        return self.of(ast.FunctionDef, ast.AsyncFunctionDef)

    def calls_under(self, func: ast.AST) -> list[ast.Call]:
        """The calls anywhere beneath ``func``, nested scopes included."""
        if self._calls_under is None:
            self._calls_under = {}
            for call in self.of(ast.Call):
                for anc in ancestors(call):
                    if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._calls_under.setdefault(id(anc), []).append(call)
        return self._calls_under.get(id(func), [])


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """Walk from ``node``'s parent up to the module root."""
    cur = getattr(node, "_lint_parent", None)
    while cur is not None:
        yield cur
        cur = getattr(cur, "_lint_parent", None)


def call_name(call: ast.Call) -> str:
    """The terminal name of the called object: ``a.b.exchange(...)`` -> ``exchange``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def dotted_name(node: ast.AST) -> str:
    """Render an attribute chain: ``np.random.default_rng`` (best effort)."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
    else:
        return ""
    return ".".join(reversed(parts))


def literal_text(node: ast.AST) -> str:
    """Concatenated constant text of a string literal or f-string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            v.value
            for v in node.values
            if isinstance(v, ast.Constant) and isinstance(v.value, str)
        )
    return ""


def is_sorted_call(node: ast.AST) -> bool:
    """True for ``sorted(...)`` / ``list(sorted(...))`` shapes."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "sorted":
            return True
        if node.func.id in ("list", "tuple") and node.args:
            return is_sorted_call(node.args[0])
    return False
