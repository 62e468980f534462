"""Transport-portability analysis of rank-executed code (``TRN003``/``TRN004``).

A message is accounting only — ``exchange([(src, dst, nwords)], tag)``
moves time and counters, never data.  What crosses a process boundary is the
value a parallel-region thunk *returns*, which the process transport
pickles to every replica (DESIGN.md §12).  Whether that value survives
pickling is checked at runtime, where it cannot be missed: the process
transport raises the supervised
:class:`~repro.machine.errors.ResultUnpicklable`, and the parity suite
runs every driver there.  Two hazards remain that a run on one platform
does not show, and this module finds them statically:

``hidden-state`` (TRN003)
    ``global``/``nonlocal`` state written, or a module-level mutable
    container mutated, inside rank-executed code — each process replica
    has its own copy, so the update is invisible to the others.

``dtype-drift`` (TRN004)
    Arrays built in rank-executed code with a platform-default integer
    dtype or an explicitly narrow one (see
    :func:`~repro.lint.flow.pytypes.dtype_violation`): the returned
    arrays, and every sum over them, then differ across platforms.

Soundness boundary: every report is a *definite* hazard — unknown types,
opaque calls and unresolvable dtypes pass silently.  Mutation of
``self`` state on engine objects is accepted (each rank owns its
engine).

**Rank-executed code** is the communication closure
(:meth:`ProjectContext.closure <repro.lint.runner.ProjectContext.closure>`):
every function that transitively exchanges or synchronises, plus
everything those functions transitively call.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .callgraph import FunctionDecl
from .pytypes import dtype_violation, infer_types

if TYPE_CHECKING:
    from ..runner import ProjectContext

__all__ = [
    "TransportProblem",
    "TransportReport",
    "analyze_transport",
    "verify_transport",
]


@dataclass(frozen=True)
class TransportProblem:
    """One statically-detected transport-portability hazard."""

    rule: str  # "TRN003" | "TRN004"
    kind: str  # "hidden-state" | "dtype-drift"
    message: str
    module: str
    line: int
    col: int
    function: str


@dataclass
class TransportReport:
    """Transport-readiness outcome for one driver's comm closure."""

    module: str
    qualname: str
    certified: bool
    problems: list[TransportProblem] = field(default_factory=list)
    #: Functions in the driver's communication closure (analysed).
    functions: int = 0

    @property
    def key(self) -> str:
        return f"{self.module}::{self.qualname}"


# ----------------------------------------------------------------------
# per-function helpers
# ----------------------------------------------------------------------


def _own_walk(node: ast.AST):
    """``ast.walk`` that does not descend into nested function scopes."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for child in ast.iter_child_nodes(cur):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append(child)


def _scopes(func: ast.FunctionDef | ast.AsyncFunctionDef):
    """``func`` and every nested function definition, at any depth."""
    yield func
    for node in ast.walk(func):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not func
        ):
            yield node


def _target_names(t: ast.expr) -> list[str]:
    """Bare names *bound* by an assignment target.

    Recurses only through destructuring (tuple/list/starred) — a
    subscript or attribute target mutates an existing object rather
    than binding a name, so its inner names are excluded.
    """
    if isinstance(t, ast.Name):
        return [t.id]
    if isinstance(t, (ast.Tuple, ast.List)):
        return [n for e in t.elts for n in _target_names(e)]
    if isinstance(t, ast.Starred):
        return _target_names(t.value)
    return []


def _bound_by(node: ast.AST) -> list[str]:
    """Bare names (re)bound by one node of a scope."""
    if isinstance(node, ast.Assign):
        return [n for t in node.targets for n in _target_names(t)]
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target.id] if isinstance(node.target, ast.Name) else []
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return _target_names(node.target)
    if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    a = func.args
    names = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
    if a.vararg:
        names.add(a.vararg.arg)
    if a.kwarg:
        names.add(a.kwarg.arg)
    return names


#: Method names that mutate their receiver in place (list/dict/set and
#: ndarray vocabulary).  ``sort``/``pop`` are deliberately included even
#: though some receivers return values — the receiver changes either way.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "sort",
        "reverse", "update", "add", "discard", "setdefault", "popitem",
        "fill", "resize", "put", "itemset", "partition_inplace",
    }
)


def stmt_mutations(stmt: ast.stmt) -> list[tuple[str, str, int]]:
    """In-place mutations ``stmt`` performs, as ``(name, how, line)``.

    Covers subscript/attribute assignment and aug-assignment rooted at a
    bare name (``x[i] = v``, ``x.field += v``), aug-assignment of the
    name itself (``x += v`` — a rebind for scalars but an in-place
    ``__iadd__`` for ndarrays/lists), and mutator method calls
    (``x.append(v)``, ``x.fill(0)``).  Plain rebinding (``x = v``) is
    *not* a mutation: the old object is unaffected.
    """
    out: list[tuple[str, str, int]] = []

    def root(node: ast.expr) -> ast.expr:
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return node

    def record_target(target: ast.expr, how: str, line: int) -> None:
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            base = root(target)
            if isinstance(base, ast.Name):
                out.append((base.id, how, line))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                record_target(elt, how, line)

    for node in ast.walk(stmt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested scopes are analysed on their own
        if isinstance(node, ast.Assign):
            for t in node.targets:
                record_target(t, "element/attribute assignment", node.lineno)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(node.target, ast.Name) and isinstance(node, ast.AugAssign):
                out.append((node.target.id, "augmented assignment", node.lineno))
            else:
                record_target(node.target, "element/attribute assignment", node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHODS:
                base = root(node.func.value)
                if isinstance(base, ast.Name):
                    out.append(
                        (base.id, f".{node.func.attr}() call", node.lineno)
                    )
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                record_target(t, "element deletion", node.lineno)
    return out


def _problem(
    decl: FunctionDecl, rule: str, kind: str, node: ast.AST, message: str
) -> TransportProblem:
    return TransportProblem(
        rule=rule,
        kind=kind,
        message=message,
        module=decl.module,
        line=getattr(node, "lineno", decl.node.lineno),
        col=getattr(node, "col_offset", 0),
        function=decl.qualname,
    )


# ----------------------------------------------------------------------
# the two judgements
# ----------------------------------------------------------------------


def _hidden_state(
    decl: FunctionDecl, mutable_globals: frozenset[str]
) -> list[TransportProblem]:
    """TRN003 over ``decl`` and its nested scopes."""
    out: list[TransportProblem] = []
    for scope in _scopes(decl.node):
        written: set[str] = set()
        declared: list[ast.Global | ast.Nonlocal] = []
        for node in _own_walk(scope):
            written.update(_bound_by(node))
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.append(node)
        for node in declared:
            kw = "global" if isinstance(node, ast.Global) else "nonlocal"
            for name in node.names:
                if name in written:
                    out.append(_problem(
                        decl, "TRN003", "hidden-state", node,
                        f"{kw} {name!r} is written inside rank-executed "
                        f"code ({scope.name}): the update is invisible to "
                        f"other processes under a real transport",
                    ))
        if not mutable_globals:
            continue
        local = written | _param_names(scope)
        for stmt in scope.body:
            for name, how, line in stmt_mutations(stmt):
                if name in mutable_globals and name not in local:
                    out.append(_problem(
                        decl, "TRN003", "hidden-state", stmt,
                        f"module-global {name!r} mutated inside "
                        f"rank-executed code ({how} at line {line}): "
                        f"other processes never see the update",
                    ))
    return out


def _dtype_drift(decl: FunctionDecl) -> list[TransportProblem]:
    """TRN004 over every call of ``decl``."""
    env = infer_types(decl.node)
    return [
        _problem(
            decl, "TRN004", "dtype-drift", node,
            f"{msg}; rank-executed arrays must be explicitly "
            f"float64/int64 for cross-transport bit-identity",
        )
        for node in decl.calls
        if (msg := dtype_violation(node, env))
    ]


class _TransportAnalyzer:
    """Memoized per-function checks over one project."""

    def __init__(self, project: "ProjectContext") -> None:
        self.cg = project.call_graph
        self._checked: dict[str, list[TransportProblem]] = {}

    def check(self, decl: FunctionDecl) -> list[TransportProblem]:
        cached = self._checked.get(decl.key)
        if cached is None:
            cached = self._checked[decl.key] = _hidden_state(
                decl, self.cg.mutable_globals(decl.module)
            ) + _dtype_drift(decl)
        return cached

    def problems_in(self, decls: list[FunctionDecl]) -> list[TransportProblem]:
        """De-duplicated problems of ``decls``, in (module, line, rule) order."""
        seen: dict[tuple, TransportProblem] = {}
        for decl in decls:
            for p in self.check(decl):
                seen.setdefault((p.rule, p.module, p.line, p.message), p)
        return sorted(seen.values(), key=lambda p: (p.module, p.line, p.rule))


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def analyze_transport(project: "ProjectContext") -> list[TransportProblem]:
    """Every TRN problem in the project-wide communication closure.

    Used by the TRN rule family (through
    :attr:`ProjectContext.transport_problems`);
    :func:`verify_transport` presents the same analysis per target.
    """
    seeds = [
        d
        for d in project.call_graph.functions()
        if not d.is_transport_method and project.has_comm(d)
    ]
    return _TransportAnalyzer(project).problems_in(project.closure(seeds))


def verify_transport(project: "ProjectContext") -> list[TransportReport]:
    """Transport-readiness certification, one report per target of
    :meth:`ProjectContext.targets`.  Each target's whole communication closure is analysed;
    the report aggregates the problems found anywhere in it.
    """
    an = _TransportAnalyzer(project)
    reports: list[TransportReport] = []
    for decl in project.targets():
        closure = project.closure([decl])
        problems = an.problems_in(closure)
        reports.append(
            TransportReport(
                module=decl.home,
                qualname=decl.qualname,
                certified=not problems,
                problems=problems,
                functions=len(closure),
            )
        )
    return reports
