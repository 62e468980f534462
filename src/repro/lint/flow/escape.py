"""Interprocedural escape/aliasing analysis for transport portability.

The simulator passes message payloads **by reference**: ``send`` stores
the payload object in a mailbox and ``recv`` hands the very same object
to the receiver.  A real transport (ROADMAP item 1) serializes at post
time instead — so any driver that (a) mutates a payload after posting
it, (b) posts an unpicklable object, (c) communicates through hidden
module/closure state, or (d) lets array dtypes follow the platform
default, runs *correctly* under the simulator and *divergently* on real
workers.  This module finds that defect class statically, the same way
:mod:`~repro.lint.flow.protocol` certifies deadlock-freedom.

The four judgements (surfaced as rules TRN001–TRN004):

``aliased-payload`` (TRN001)
    A payload reaching a post by reference is mutated on some path
    *after* the post (CFG forward reachability; loop back-edges make a
    mutation earlier in the body count).  Aliases are tracked
    flow-insensitively through bare-name copies, and **escape
    summaries** carry the judgement across calls: a formal parameter
    that transitively flows into a post's payload slot marks every call
    site's actual argument as posted there.

``unsafe-payload`` (TRN002)
    The abstract type interpreter (:mod:`~repro.lint.flow.pytypes`)
    infers a payload type that ``pickle`` definitely rejects: locks,
    generators, lambdas, open files, live ``Simulator`` handles.

``hidden-state`` (TRN003)
    ``global``/``nonlocal`` state written, or a module-level mutable
    container mutated, inside rank-executed code — updates other
    processes would never see.

``dtype-drift`` (TRN004)
    Arrays built in rank-executed code with a platform-default integer
    dtype or an explicitly narrow one (see
    :func:`~repro.lint.flow.pytypes.dtype_violation`).

Soundness boundary (DESIGN.md §12): every report is a *definite*
hazard — unknown types, opaque calls and unresolvable dtypes pass
silently.  Sanctioned idioms the analysis deliberately accepts: fresh-
object payloads (``x.copy()``, ``np.array(x)``, arithmetic results),
per-rank accumulator arrays indexed by rank, shallow-copy payload
containers (their *elements* still alias — the ``copy_payloads=True``
runtime oracle covers that residue), and mutation of ``self`` state on
engine objects (each rank owns its engine).

**Rank-executed code** is the communication closure
(:meth:`ProjectContext.closure <repro.lint.runner.ProjectContext.closure>`):
every function that transitively posts/drains/synchronises, plus
everything those functions transitively call.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..astutil import call_name
from ..comm import payload_exprs
from .callgraph import FunctionDecl
from .cfg import build_cfg
from .dataflow import _enclosing_stmt, statements_after, stmt_mutations
from .pytypes import UNKNOWN, dtype_violation, infer_expr, infer_types, unsafe_reason

if TYPE_CHECKING:
    from ..runner import ProjectContext

__all__ = [
    "TransportProblem",
    "TransportReport",
    "analyze_transport",
    "verify_transport",
]

#: Calls that produce a fresh object — posting their result never
#: aliases caller state.  ``asarray`` is deliberately absent: it
#: returns its argument unchanged when the dtype already matches.
_FRESH_CALLS = frozenset(
    {"copy", "deepcopy", "list", "dict", "tuple", "set", "frozenset",
     "array", "tolist", "astype", "sorted", "zeros", "ones", "empty",
     "full", "arange", "concatenate", "repeat"}
)

#: Kinds whose augmented assignment rebinds instead of mutating.
_IMMUTABLE_KINDS = frozenset({"int", "float", "str", "bool", "bytes", "none", "tuple"})

_MAX_ESCAPE_DEPTH = 8


@dataclass(frozen=True)
class TransportProblem:
    """One statically-detected transport-portability hazard."""

    rule: str  # "TRN001" .. "TRN004"
    kind: str  # "aliased-payload" | "unsafe-payload" | "hidden-state" | "dtype-drift"
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
    #: Payload expressions checked across the closure.
    payloads: int = 0

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


def _alias_classes(func: ast.AST) -> dict[str, set[str]]:
    """Union-find over bare-name copies (``a = b``) in ``func``'s scope."""
    parent: dict[str, str] = {}
    names: set[str] = set()

    def find(x: str) -> str:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        names.update((a, b))
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for node in _own_walk(func):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Name)
            and all(isinstance(t, ast.Name) for t in node.targets)
        ):
            for t in node.targets:
                union(t.id, node.value.id)  # type: ignore[union-attr]
    classes: dict[str, set[str]] = {}
    for n in names:
        classes.setdefault(find(n), set()).add(n)
    return {n: classes[find(n)] for n in names}


def _is_fresh(expr: ast.expr) -> bool:
    """Does ``expr`` evaluate to an object no caller variable aliases?"""
    if isinstance(expr, ast.Constant):
        return True
    if isinstance(expr, (ast.BinOp, ast.UnaryOp, ast.Compare, ast.BoolOp)):
        return True  # arithmetic/logic builds a new object
    if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(expr, ast.Call):
        return call_name(expr) in _FRESH_CALLS
    return False


def _payload_names(expr: ast.expr) -> list[str]:
    """Caller-visible names the posted object (or its slots) aliases.

    Bare names, subscript/attribute roots (an ndarray slice is a *view*
    of its base), and names one container level down.  Fresh
    expressions contribute nothing.
    """
    if _is_fresh(expr):
        return []
    out: list[str] = []

    def collect(e: ast.expr, depth: int) -> None:
        if isinstance(e, ast.Name):
            out.append(e.id)
        elif isinstance(e, (ast.Subscript, ast.Attribute)):
            base = e.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name) and base.id not in ("self", "cls"):
                out.append(base.id)
        elif isinstance(e, (ast.Tuple, ast.List, ast.Set)) and depth < 2:
            for elt in e.elts:
                collect(elt, depth + 1)
        elif isinstance(e, ast.Dict) and depth < 2:
            for v in e.values:
                if v is not None:
                    collect(v, depth + 1)
        elif isinstance(e, ast.Starred):
            collect(e.value, depth)

    collect(expr, 0)
    return out


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


def _bound_names(scope: ast.AST) -> set[str]:
    """Bare names (re)bound in ``scope`` (excluding nested scopes)."""
    out: set[str] = set()
    for node in _own_walk(scope):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                out.update(_target_names(t))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(node.target, ast.Name):
                out.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            out.update(_target_names(node.target))
        elif isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
    return out


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    a = func.args
    names = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
    if a.vararg:
        names.add(a.vararg.arg)
    if a.kwarg:
        names.add(a.kwarg.arg)
    return names


# ----------------------------------------------------------------------
# the analyzer
# ----------------------------------------------------------------------


class _TransportAnalyzer:
    """Memoized per-function transport checks over one project."""

    def __init__(self, project: "ProjectContext") -> None:
        self.cg = project.call_graph
        self._checked: dict[str, list[TransportProblem]] = {}
        self._payloads: dict[str, int] = {}
        self._escaping: dict[str, frozenset[str]] = {}

    def problems_in(self, decls: list[FunctionDecl]) -> list[TransportProblem]:
        """De-duplicated problems of ``decls``, in (module, line, rule) order."""
        seen: dict[tuple, TransportProblem] = {}
        for decl in decls:
            for p in self.check(decl):
                seen.setdefault((p.rule, p.module, p.line, p.message), p)
        return sorted(seen.values(), key=lambda p: (p.module, p.line, p.rule))

    # ------------------------------------------------ escape summaries

    def escaping_params(
        self, decl: FunctionDecl, _visiting: frozenset = frozenset()
    ) -> frozenset[str]:
        """Formals of ``decl`` that transitively reach a post's payload."""
        cached = self._escaping.get(decl.key)
        if cached is not None:
            return cached
        if decl.key in _visiting or len(_visiting) >= _MAX_ESCAPE_DEPTH:
            return frozenset()
        visiting = _visiting | {decl.key}
        params = _param_names(decl.node)
        aliases = _alias_classes(decl.node)
        escaped: set[str] = set()

        def mark(names: list[str]) -> None:
            for n in names:
                group = aliases.get(n, {n})
                escaped.update(group & params)

        for node in _own_walk(decl.node):
            if not isinstance(node, ast.Call):
                continue
            for payload in payload_exprs(node):
                mark(_payload_names(payload))
            callee = self.cg.callee(node, decl)
            if callee is None or callee.is_transport_method:
                continue
            callee_esc = self.escaping_params(callee, visiting)
            if callee_esc:
                for formal, actual in self._bind_args(node, callee):
                    if formal in callee_esc and isinstance(actual, ast.Name):
                        mark([actual.id])
        result = frozenset(escaped)
        if decl.key not in _visiting:
            self._escaping[decl.key] = result
        return result

    @staticmethod
    def _bind_args(call: ast.Call, callee: FunctionDecl):
        """``(formal name, actual expr)`` pairs for a resolved call."""
        a = callee.node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args)]
        # bound method or constructor: the receiver fills ``self``/``cls``
        offset = 1 if params and params[0] in ("self", "cls") else 0
        pairs = []
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            if offset + i < len(params):
                pairs.append((params[offset + i], arg))
        kw_ok = {p.arg for p in (*a.args, *a.kwonlyargs)}
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in kw_ok:
                pairs.append((kw.arg, kw.value))
        return pairs

    # ----------------------------------------------------- per function

    def check(self, decl: FunctionDecl) -> list[TransportProblem]:
        cached = self._checked.get(decl.key)
        if cached is not None:
            return cached
        problems: list[TransportProblem] = []
        self._payloads[decl.key] = 0
        env = infer_types(decl.node)
        self._check_aliasing(decl, env, problems)
        self._check_hidden_state(decl, problems)
        self._check_dtypes(decl, env, problems)
        self._checked[decl.key] = problems
        return problems

    def payload_count(self, decl: FunctionDecl) -> int:
        self.check(decl)
        return self._payloads.get(decl.key, 0)

    def _problem(
        self,
        problems: list[TransportProblem],
        decl: FunctionDecl,
        rule: str,
        kind: str,
        node: ast.AST,
        message: str,
    ) -> None:
        problems.append(
            TransportProblem(
                rule=rule,
                kind=kind,
                message=message,
                module=decl.module,
                line=getattr(node, "lineno", decl.node.lineno),
                col=getattr(node, "col_offset", 0),
                function=decl.qualname,
            )
        )

    # TRN001 + TRN002 share the post-site walk.
    def _check_aliasing(
        self,
        decl: FunctionDecl,
        env: dict,
        problems: list[TransportProblem],
    ) -> None:
        cfg = build_cfg(decl.node)
        aliases = _alias_classes(decl.node)
        #: (call node, payload names, description of the post)
        posts: list[tuple[ast.Call, list[str], str]] = []
        for node in _own_walk(decl.node):
            if not isinstance(node, ast.Call):
                continue
            for payload in payload_exprs(node):
                self._payloads[decl.key] += 1
                names = _payload_names(payload)
                posts.append((node, names, f"{call_name(node)}()"))
                reason = unsafe_reason(infer_expr(payload, env))
                if reason:
                    self._problem(
                        problems, decl, "TRN002", "unsafe-payload", node,
                        f"payload posted by {call_name(node)}() is not "
                        f"pickle-safe: {reason}",
                    )
            callee = self.cg.callee(node, decl)
            if callee is None or callee.is_transport_method:
                continue
            callee_esc = self.escaping_params(callee)
            if not callee_esc:
                continue
            for formal, actual in self._bind_args(node, callee):
                if formal not in callee_esc:
                    continue
                names = _payload_names(actual)
                if names:
                    posts.append(
                        (node, names,
                         f"{callee.qualname}() (escapes via parameter "
                         f"{formal!r})")
                    )
                reason = unsafe_reason(infer_expr(actual, env))
                if reason:
                    self._problem(
                        problems, decl, "TRN002", "unsafe-payload", node,
                        f"argument {formal!r} of {callee.qualname}() flows "
                        f"into a posted payload and is not pickle-safe: "
                        f"{reason}",
                    )
        for call, names, what in posts:
            if not names:
                continue
            alias_set: set[str] = set()
            for n in names:
                alias_set |= aliases.get(n, {n})
            stmt = _enclosing_stmt(call)
            if stmt is None:
                continue
            hit = None
            for later in statements_after(cfg, stmt):
                for name, how, line in stmt_mutations(later):
                    if name not in alias_set:
                        continue
                    if (
                        how == "augmented assignment"
                        and env.get(name, UNKNOWN).kind
                        not in ("ndarray", "list", "dict", "set")
                    ):
                        continue  # scalar += rebinds; the sent object is safe
                    hit = (name, how, line)
                    break
                if hit:
                    break
            if hit:
                name, how, line = hit
                self._problem(
                    problems, decl, "TRN001", "aliased-payload", call,
                    f"payload {name!r} posted via {what} is mutated after "
                    f"the post ({how} at line {line}): a serializing "
                    f"transport would deliver the pre-mutation value",
                )

    # TRN003
    def _check_hidden_state(
        self, decl: FunctionDecl, problems: list[TransportProblem]
    ) -> None:
        mutable_globals = self.cg.mutable_globals(decl.module)
        for scope in _scopes(decl.node):
            written = _bound_names(scope)
            local = written | _param_names(scope)
            declared: list[tuple[str, str, ast.stmt]] = []
            for node in _own_walk(scope):
                if isinstance(node, ast.Global):
                    declared.extend(("global", n, node) for n in node.names)
                elif isinstance(node, ast.Nonlocal):
                    declared.extend(("nonlocal", n, node) for n in node.names)
            for kw, name, node in declared:
                if name in written:
                    self._problem(
                        problems, decl, "TRN003", "hidden-state", node,
                        f"{kw} {name!r} is written inside rank-executed "
                        f"code ({scope.name}): the update is invisible to "
                        f"other processes under a real transport",
                    )
            for stmt in scope.body:
                for name, how, line in stmt_mutations(stmt):
                    if name in mutable_globals and name not in local:
                        self._problem(
                            problems, decl, "TRN003", "hidden-state", stmt,
                            f"module-global {name!r} mutated inside "
                            f"rank-executed code ({how} at line {line}): "
                            f"other processes never see the update",
                        )

    # TRN004
    def _check_dtypes(
        self, decl: FunctionDecl, env: dict, problems: list[TransportProblem]
    ) -> None:
        for node in decl.calls:
            msg = dtype_violation(node, env)
            if msg:
                self._problem(
                    problems, decl, "TRN004", "dtype-drift", node,
                    f"{msg}; rank-executed arrays must be explicitly "
                    f"float64/int64 for cross-transport bit-identity",
                )


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
    :meth:`ProjectContext.targets` (the same set ``--verify-protocol``
    certifies).  Each target's whole communication closure is analysed;
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
                payloads=sum(an.payload_count(member) for member in closure),
            )
        )
    return reports
