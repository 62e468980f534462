"""Static SPMD protocol verifier.

Interprets composed :class:`~repro.lint.flow.summary.FunctionSummary`
IR over concrete rank counts (2–4 by default), certifying a driver's
send/recv/collective protocol deadlock-free — or producing located
:class:`ProtocolProblem`\\ s.

Execution model
---------------
The repro drivers are *centralised* SPMD programs: one Python loop
drives every rank of the simulator, so the protocol obligation is
exactly the simulator's own runtime contract, evaluated statically:

* ``send`` posts an in-flight message ``(src, dst, tag)``;
* ``recv`` must match an in-flight message (endpoints and tag unify) —
  a drain with no matching post is a **deadlock** (the simulator would
  raise ``RuntimeError: deadlock`` on some input);
* a collective reached with undrained in-flight messages, and any
  message still in flight at function exit, are **protocol leaks**.

Enumeration model (the soundness boundary, documented in DESIGN.md):

* a loop whose target binds two rank-named variables (``for (src, dst),
  w in sorted(words.items())``) enumerates **all ordered pairs** of the
  rank count under test;
* a loop over a rank range (``range(nranks)``) enumerates every rank;
* a loop over a constant tuple enumerates its values;
* every other loop runs two symbolic iterations with fresh per-
  iteration symbols bound to its targets — so a tag like ``("fwd",
  lvl_idx)`` matches its drain within an iteration but **not** across
  iterations, which is what catches tag-ordering deadlocks;
* branches fork both ways, memoised per condition fingerprint (so a
  hundred ``if sim is not None:`` guards cost one decision, and ``x is
  None`` / ``x is not None`` share it with opposite polarity); branch
  arms that only ``raise`` are pruned (validation errors are not
  protocol paths), as are ``except`` handlers (fault paths).

Calls resolving through the project call graph to a function that
transitively communicates are inlined with actual→formal binding (depth
and cycle capped); everything else is opaque.  ``*recv*``-named helpers
are treated as drains by the summary layer, so ``_recv_retry`` composes
without touching its retransmission machinery.

The call graph, the per-function summaries and the "transitively
communicates" judgement all come from the run's
:class:`~repro.lint.runner.ProjectContext`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..comm import COMM_KINDS, RANK_NAMES, RANK_RANGE_MARKERS
from .callgraph import FunctionDecl
from .summary import CommOp

if TYPE_CHECKING:
    from ..runner import ProjectContext

__all__ = [
    "ProtocolProblem",
    "ProtocolReport",
    "verify_function",
    "verify_drivers",
]

_MAX_INLINE_DEPTH = 10
_MAX_PATHS = 64
_MAX_OPS_PER_PATH = 50_000
_GENERIC_ITERS = 2
_WHILE_TRUE_ITERS = 4


@dataclass(frozen=True)
class Sym:
    """A symbolic value; structural equality is the matching relation."""

    key: tuple

    def __repr__(self) -> str:
        return f"?{'.'.join(str(k) for k in self.key)}"


class _Return(Exception):
    pass


class _FnRaise(Exception):
    pass


class _BreakLoop(Exception):
    pass


class _ContinueLoop(Exception):
    pass


@dataclass(frozen=True)
class ProtocolProblem:
    """One statically-detected protocol violation."""

    kind: str  # "deadlock" | "unmatched-post" | "undrained-at-collective" | "budget"
    message: str
    module: str
    line: int
    function: str


@dataclass
class ProtocolReport:
    """Verification outcome for one driver across the rank sweep."""

    module: str
    qualname: str
    ranks: tuple[int, ...]
    certified: bool
    problems: list[ProtocolProblem] = field(default_factory=list)
    paths: int = 0
    posts: int = 0
    drains: int = 0
    collectives: int = 0

    @property
    def key(self) -> str:
        return f"{self.module}::{self.qualname}"


@dataclass
class _Message:
    src: object
    dst: object
    tag: object
    line: int


def _render_tag(tag: object) -> str:
    if isinstance(tag, tuple):
        return "(" + ", ".join(_render_tag(t) for t in tag) + ")"
    return repr(tag)


def _target_names(target: ast.expr) -> list[str]:
    out: list[str] = []

    def walk(node: ast.expr) -> None:
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                walk(elt)
        elif isinstance(node, ast.Starred):
            walk(node.value)

    walk(target)
    return out


def _cond_key(test: ast.expr) -> tuple[str, bool]:
    """Canonical decision variable + polarity for a branch condition.

    ``x is None`` and ``x is not None`` map to the same key with
    opposite polarity, so repeated guards share one decision.
    """
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        key, pol = _cond_key(test.operand)
        return key, not pol
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot))
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return ast.dump(test.left), isinstance(test.ops[0], ast.IsNot)
    return ast.dump(test), True


_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
}


class _Executor:
    """One path execution of a driver summary at a fixed rank count."""

    def __init__(
        self,
        project: "ProjectContext",
        nranks: int,
        decisions: dict[str, bool],
    ) -> None:
        self.project = project
        self.R = nranks
        self.decisions = dict(decisions)
        self.new_keys: list[str] = []
        self.inflight: list[_Message] = []
        self.problems: list[ProtocolProblem] = []
        self.stack: list[str] = []
        self.ops_run = 0
        self.posts = 0
        self.drains = 0
        self.collectives = 0
        self.raised = False

    # ----------------------------------------------------------- entry

    def run(self, decl: FunctionDecl) -> None:
        summary = self.project.summary(decl)
        env: dict[str, object] = {
            p: Sym(("param", p)) for p in summary.params
        }
        self.stack.append(decl.key)
        try:
            self._exec_ops(decl, summary.ops, env)
        except _Return:
            pass
        except (_BreakLoop, _ContinueLoop):
            pass  # stray break/continue at function level: ignore
        except _FnRaise:
            self.raised = True
        self.stack.pop()
        if not self.raised:
            for m in self.inflight:
                self._problem(
                    decl,
                    "unmatched-post",
                    m.line,
                    f"message {m.src!r}->{m.dst!r} tag {_render_tag(m.tag)} "
                    f"posted but never drained (nranks={self.R})",
                )

    # ------------------------------------------------------------ core

    def _exec_ops(
        self, decl: FunctionDecl, ops: list[CommOp], env: dict[str, object]
    ) -> None:
        for op in ops:
            self.ops_run += 1
            if self.ops_run > _MAX_OPS_PER_PATH:
                raise _Return  # bail out; budget problem added by verifier
            kind = op.kind
            if kind == "send":
                self.posts += 1
                self.inflight.append(
                    _Message(
                        src=self._eval(op.src, env),
                        dst=self._eval(op.dst, env),
                        tag=self._eval(op.tag, env),
                        line=op.line,
                    )
                )
            elif kind == "recv":
                self._drain(decl, op, env)
            elif kind == "collective":
                self.collectives += 1
                if self.inflight:
                    tags = ", ".join(
                        sorted({_render_tag(m.tag) for m in self.inflight})
                    )
                    self._problem(
                        decl,
                        "undrained-at-collective",
                        op.line,
                        f"{op.name} reached with {len(self.inflight)} message(s) "
                        f"in flight (tags {tags}, nranks={self.R})",
                    )
            elif kind == "exchange":
                self.posts += 1
                self.drains += 1  # paired by construction
            elif kind == "call":
                self._exec_call(decl, op, env)
            elif kind == "branch":
                self._exec_branch(decl, op, env)
            elif kind == "loop":
                self._exec_loop(decl, op, env)
            elif kind == "tryblock":
                self._exec_ops(decl, op.body, env)
            elif kind == "return":
                raise _Return
            elif kind == "raise":
                raise _FnRaise
            elif kind == "break":
                raise _BreakLoop
            elif kind == "continue":
                raise _ContinueLoop

    def _drain(self, decl: FunctionDecl, op: CommOp, env: dict[str, object]) -> None:
        self.drains += 1
        src = self._eval(op.src, env)
        dst = self._eval(op.dst, env)
        tag = self._eval(op.tag, env)
        for i, m in enumerate(self.inflight):
            if (
                _endpoint_unify(m.src, src)
                and _endpoint_unify(m.dst, dst)
                and _tag_unify(m.tag, tag)
            ):
                del self.inflight[i]
                return
        self._problem(
            decl,
            "deadlock",
            op.line,
            f"recv dst={dst!r} src={src!r} tag {_render_tag(tag)} has no "
            f"matching in-flight send (nranks={self.R}): the simulator "
            "would deadlock here",
        )

    def _exec_call(self, decl: FunctionDecl, op: CommOp, env: dict[str, object]) -> None:
        assert op.call is not None
        callee = self.project.call_graph.callee(op.call, decl)
        if callee is None or not self.project.has_comm(callee):
            return
        if callee.key in self.stack or len(self.stack) >= _MAX_INLINE_DEPTH:
            return
        summary = self.project.summary(callee)
        callee_env: dict[str, object] = {}
        params = list(summary.params)
        offset = 0
        if (
            callee.cls is not None
            and params
            and params[0] in ("self", "cls")
            and not _is_direct_class_call(op.call)
        ):
            callee_env[params[0]] = Sym(("param", params[0]))
            offset = 1
        for i, arg in enumerate(op.call.args):
            if isinstance(arg, ast.Starred):
                break
            if offset + i < len(params):
                callee_env[params[offset + i]] = self._eval(arg, env)
        for kw in op.call.keywords:
            if kw.arg is not None and kw.arg in params:
                callee_env[kw.arg] = self._eval(kw.value, env)
        for p in params:
            callee_env.setdefault(p, Sym(("param", summary.qualname, p)))
        self.stack.append(callee.key)
        try:
            self._exec_ops(callee, summary.ops, callee_env)
        except _Return:
            pass
        finally:
            self.stack.pop()

    def _exec_branch(
        self, decl: FunctionDecl, op: CommOp, env: dict[str, object]
    ) -> None:
        body_live = self._ops_live(decl, op.body)
        else_live = self._ops_live(decl, op.orelse)
        if not body_live and not else_live:
            return
        # prune raise-only arms: validation paths, not protocol paths
        if self._raise_only(decl, op.body):
            self._exec_ops(decl, op.orelse, env)
            return
        if op.orelse and self._raise_only(decl, op.orelse):
            self._exec_ops(decl, op.body, env)
            return
        assert op.test is not None
        key, pol = _cond_key(op.test)
        if key in self.decisions:
            value = self.decisions[key]
        else:
            value = True
            self.decisions[key] = True
            self.new_keys.append(key)
        take_body = value if pol else not value
        self._exec_ops(decl, op.body if take_body else op.orelse, env)

    def _raise_only(self, decl: FunctionDecl, ops: list[CommOp]) -> bool:
        if not ops or not any(o.kind == "raise" for o in ops):
            return False
        return not self._ops_have_comm(decl, ops)

    def _ops_have_comm(self, decl: FunctionDecl, ops: list[CommOp]) -> bool:
        for op in ops:
            if op.kind in COMM_KINDS:
                return True
            if op.kind == "call" and op.call is not None:
                callee = self.project.call_graph.callee(op.call, decl)
                if callee is not None and self.project.has_comm(callee):
                    return True
            if self._ops_have_comm(decl, op.body) or self._ops_have_comm(decl, op.orelse):
                return True
        return False

    def _ops_live(self, decl: FunctionDecl, ops: list[CommOp]) -> bool:
        """Comm *or* control transfer: worth symbolically executing."""
        if any(op.kind in ("return", "break", "continue") for op in ops):
            return True
        return self._ops_have_comm(decl, ops)

    # ------------------------------------------------------------ loops

    def _exec_loop(self, decl: FunctionDecl, op: CommOp, env: dict[str, object]) -> None:
        if not self._ops_live(decl, op.body):
            return
        node = op.node
        iterations = self._loop_iterations(node, op)
        broke = False
        for bindings in iterations:
            it_env = dict(env)
            it_env.update(bindings)
            try:
                self._exec_ops(decl, op.body, it_env)
            except _BreakLoop:
                broke = True
                break
            except _ContinueLoop:
                continue
            env.update(
                {k: v for k, v in it_env.items() if k in bindings}
            )  # loop vars survive the loop in Python
        if not broke and op.orelse:
            self._exec_ops(decl, op.orelse, env)

    def _loop_iterations(
        self, node: ast.AST | None, op: CommOp
    ) -> list[dict[str, object]]:
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.While):
            if isinstance(node.test, ast.Constant) and node.test.value:
                n = _WHILE_TRUE_ITERS  # expects a break; bounded regardless
            else:
                n = _GENERIC_ITERS
            return [{} for _ in range(n)]
        assert isinstance(node, (ast.For, ast.AsyncFor))
        names = _target_names(node.target)
        ranky = [n for n in names if n in RANK_NAMES]
        iter_dump = ast.dump(node.iter)
        if len(ranky) >= 2:
            # pair loop: all ordered pairs of the rank count under test
            out = []
            k = 0
            for a in range(self.R):
                for b in range(self.R):
                    if a == b:
                        continue
                    bind: dict[str, object] = {ranky[0]: a, ranky[1]: b}
                    for nm in names:
                        if nm not in bind:
                            bind[nm] = Sym(("loop", line, k, nm))
                    out.append(bind)
                    k += 1
            return out
        if isinstance(node.iter, (ast.Tuple, ast.List)) and all(
            isinstance(e, ast.Constant) for e in node.iter.elts
        ):
            values = [e.value for e in node.iter.elts]  # type: ignore[union-attr]
            out = []
            for k, v in enumerate(values):
                if len(names) == 1:
                    out.append({names[0]: v})
                else:
                    out.append({nm: Sym(("loop", line, k, nm)) for nm in names})
            return out
        if any(marker in iter_dump for marker in RANK_RANGE_MARKERS):
            # rank loop: every rank, bound to the (single) rank target
            rank_name = ranky[0] if ranky else (names[0] if names else None)
            out = []
            for r in range(self.R):
                bind = {} if rank_name is None else {rank_name: r}
                for nm in names:
                    if nm not in bind:
                        bind[nm] = Sym(("loop", line, r, nm))
                out.append(bind)
            return out
        # generic sequence: two symbolic iterations, fresh symbols
        return [
            {nm: Sym(("loop", line, k, nm)) for nm in names}
            for k in range(_GENERIC_ITERS)
        ]

    # ------------------------------------------------------------- eval

    def _eval(self, expr: ast.expr | None, env: dict[str, object]) -> object:
        if expr is None:
            return None  # defaulted tag
        if isinstance(expr, ast.Constant):
            return expr.value
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            return Sym(("name", expr.id))
        if isinstance(expr, (ast.Tuple, ast.List)):
            return tuple(self._eval(e, env) for e in expr.elts)
        if isinstance(expr, ast.Attribute):
            return Sym(("attr", ast.dump(expr)))
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
            v = self._eval(expr.operand, env)
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                return -v
            return Sym(("neg", _hashable(v)))
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            fn = _BINOPS.get(type(expr.op))
            if (
                fn is not None
                and isinstance(left, (int, float))
                and isinstance(right, (int, float))
            ):
                try:
                    return fn(left, right)
                except (ZeroDivisionError, OverflowError, ValueError):
                    pass
            return Sym(
                ("binop", type(expr.op).__name__, _hashable(left), _hashable(right))
            )
        return Sym(("expr", ast.dump(expr)))

    def _problem(
        self, decl: FunctionDecl, kind: str, line: int, message: str
    ) -> None:
        self.problems.append(
            ProtocolProblem(
                kind=kind,
                message=message,
                module=decl.module,
                line=line,
                function=decl.qualname,
            )
        )


def _hashable(v: object) -> object:
    if isinstance(v, (Sym, int, float, str, bool, type(None), tuple)):
        return v
    return repr(v)


def _endpoint_unify(a: object, b: object) -> bool:
    if isinstance(a, Sym) or isinstance(b, Sym):
        return True
    if not isinstance(a, int) or not isinstance(b, int):
        return True  # non-rank endpoint value: don't over-constrain
    return a == b


def _tag_unify(a: object, b: object) -> bool:
    """Strict structural match; a *wholly* symbolic tag matches anything.

    Composite tags (``("fwd", ?lvl)`` vs ``("fwd", ?binop.Add.lvl.1)``)
    compare structurally — which is exactly what catches a drain posted
    one level ahead of its send.
    """
    if isinstance(a, Sym) or isinstance(b, Sym):
        return True
    return a == b and type(a) is type(b)


def _is_direct_class_call(call: ast.Call) -> bool:
    """``Klass(...)`` — the constructor gets no pre-bound ``self``."""
    return isinstance(call.func, ast.Name)


def verify_function(
    project: "ProjectContext",
    decl: FunctionDecl,
    ranks: tuple[int, ...] = (2, 3, 4),
) -> ProtocolReport:
    """Symbolically execute ``decl`` for each rank count in ``ranks``."""
    report = ProtocolReport(
        module=decl.home, qualname=decl.qualname, ranks=ranks, certified=True
    )
    seen: set[tuple[str, str, int, str]] = set()
    for nranks in ranks:
        budget_hit = False

        def explore(fixed: dict[str, bool]) -> None:
            nonlocal budget_hit
            if report.paths >= _MAX_PATHS * len(ranks):
                budget_hit = True
                return
            ex = _Executor(project, nranks, fixed)
            ex.run(decl)
            report.paths += 1
            report.posts += ex.posts
            report.drains += ex.drains
            report.collectives += ex.collectives
            if ex.ops_run > _MAX_OPS_PER_PATH:
                budget_hit = True
            for p in ex.problems:
                k = (p.kind, p.module, p.line, p.message)
                if k not in seen:
                    seen.add(k)
                    report.problems.append(p)
            for i, flip in enumerate(ex.new_keys):
                flipped = dict(fixed)
                for k2 in ex.new_keys[:i]:
                    flipped[k2] = True
                flipped[flip] = False
                explore(flipped)

        explore({})
        if budget_hit:
            report.problems.append(
                ProtocolProblem(
                    kind="budget",
                    message=(
                        f"path/op budget exhausted at nranks={nranks}; "
                        "protocol not fully explored"
                    ),
                    module=decl.module,
                    line=decl.node.lineno,
                    function=decl.qualname,
                )
            )
    report.certified = not report.problems
    return report


def verify_drivers(
    project: "ProjectContext",
    ranks: tuple[int, ...] = (2, 3, 4),
) -> list[ProtocolReport]:
    """Verify every target of :meth:`ProjectContext.targets`."""
    return [verify_function(project, d, ranks) for d in project.targets()]
