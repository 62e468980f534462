"""Per-function communication summaries (the protocol verifier's IR).

A :class:`FunctionSummary` is a small structured program over the
communication vocabulary: the function body with everything except
control flow, communication calls, and project-internal calls erased.
The protocol verifier (:mod:`~repro.lint.flow.protocol`) interprets
this IR, inlining :data:`CommOp` ``call`` nodes through the call graph,
so per-function summaries compose interprocedurally exactly as the
paper's drivers compose their helpers (``run`` → ``_mis_of_reduced`` →
``_recv_retry`` → ``sim.recv``).

Op kinds:

``send``/``recv``
    Point-to-point post/drain with source, destination and tag
    *expressions* (evaluated symbolically at verification time).
    ``recv``-named helper calls (``_recv_retry``) are classified as
    drains directly — their retransmit machinery is fault-path only.
``collective``
    ``barrier``/``allreduce``/``allgather``.
``exchange``
    A paired post+drain in one call; protocol-neutral.
``call``
    A call that may resolve to a project function via the call graph.
``loop``/``branch``/``tryblock``
    Control flow containing any of the above.
``return``/``raise``/``break``/``continue``
    Terminators (the executor models them as control transfers).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..astutil import call_name
from ..comm import COMM_KINDS, argument, classify

__all__ = ["CommOp", "FunctionSummary", "summarize_function"]


@dataclass
class CommOp:
    """One node of the summary IR."""

    kind: str
    node: ast.AST | None = None
    #: send/recv: endpoint + tag expressions (None = defaulted).
    src: ast.expr | None = None
    dst: ast.expr | None = None
    tag: ast.expr | None = None
    #: collective: which one.  call: resolved lazily by the executor.
    name: str = ""
    call: ast.Call | None = None
    #: loop/branch/tryblock structure.
    test: ast.expr | None = None
    body: list["CommOp"] = field(default_factory=list)
    orelse: list["CommOp"] = field(default_factory=list)

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)


@dataclass
class FunctionSummary:
    """The summarised body of one function."""

    qualname: str
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ops: list[CommOp]
    #: Formal parameter names in order (``self``/``cls`` included).
    params: list[str] = field(default_factory=list)

    def has_direct_comm(self) -> bool:
        """Does the body itself (ignoring calls) post/drain/synchronise?"""

        def scan(ops: list[CommOp]) -> bool:
            for op in ops:
                if op.kind in COMM_KINDS:
                    return True
                if scan(op.body) or scan(op.orelse):
                    return True
            return False

        return scan(self.ops)

    def direct_kinds(self) -> set[str]:
        out: set[str] = set()

        def scan(ops: list[CommOp]) -> None:
            for op in ops:
                if op.kind in COMM_KINDS:
                    out.add(op.kind)
                scan(op.body)
                scan(op.orelse)

        scan(self.ops)
        return out


def _p2p_op(call: ast.Call, kind: str) -> CommOp:
    """A post/drain op; ``recv`` and its helpers store (src, dst) the
    same way round as ``send`` whatever their own argument order."""
    return CommOp(
        kind=kind,
        node=call,
        src=argument(call, "src"),
        dst=argument(call, "dst"),
        tag=argument(call, "tag"),
    )


def _calls_in(stmt: ast.AST) -> list[CommOp]:
    """Comm/call ops for every call inside ``stmt`` (a simple statement,
    or the test/iterable/context expression of a compound one), in
    evaluation order."""
    ops: list[CommOp] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            visit(child)
        if isinstance(node, ast.Call):
            kind = classify(node)
            if kind in ("send", "recv"):
                ops.append(_p2p_op(node, kind))
            elif kind == "recv_helper":
                # only a drain when it actually takes a tag (comm.py rule)
                if argument(node, "tag") is not None:
                    ops.append(_p2p_op(node, "recv"))
            elif kind == "collective":
                ops.append(CommOp(kind="collective", node=node, name=call_name(node)))
            elif kind == "exchange":
                ops.append(CommOp(kind="exchange", node=node))
            else:
                ops.append(CommOp(kind="call", node=node, call=node))

    visit(stmt)
    return ops


def _summarize_body(stmts: list[ast.stmt]) -> list[CommOp]:
    ops: list[CommOp] = []
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            ops.extend(_calls_in(stmt.test))
            ops.append(
                CommOp(
                    kind="branch",
                    node=stmt,
                    test=stmt.test,
                    body=_summarize_body(stmt.body),
                    orelse=_summarize_body(stmt.orelse),
                )
            )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            ops.extend(_calls_in(stmt.iter))
            ops.append(
                CommOp(
                    kind="loop",
                    node=stmt,
                    body=_summarize_body(stmt.body),
                    orelse=_summarize_body(stmt.orelse),
                )
            )
        elif isinstance(stmt, ast.While):
            ops.extend(_calls_in(stmt.test))
            ops.append(
                CommOp(
                    kind="loop",
                    node=stmt,
                    test=stmt.test,
                    body=_summarize_body(stmt.body),
                    orelse=_summarize_body(stmt.orelse),
                )
            )
        elif isinstance(stmt, ast.Try):
            # happy path: body then else; handlers are fault-path only
            ops.append(
                CommOp(
                    kind="tryblock",
                    node=stmt,
                    body=_summarize_body(stmt.body) + _summarize_body(stmt.orelse),
                )
            )
            if stmt.finalbody:
                ops.extend(_summarize_body(stmt.finalbody))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                ops.extend(_calls_in(item.context_expr))
            ops.extend(_summarize_body(stmt.body))
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                ops.extend(_calls_in(stmt.value))
            ops.append(CommOp(kind="return", node=stmt))
        elif isinstance(stmt, ast.Raise):
            ops.append(CommOp(kind="raise", node=stmt))
        elif isinstance(stmt, ast.Break):
            ops.append(CommOp(kind="break", node=stmt))
        elif isinstance(stmt, ast.Continue):
            ops.append(CommOp(kind="continue", node=stmt))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # nested defs don't execute at this level
        else:
            ops.extend(_calls_in(stmt))
    return ops


def summarize_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    qualname: str = "",
    module: str = "",
) -> FunctionSummary:
    """Extract the communication summary of one function body."""
    params = [a.arg for a in node.args.posonlyargs + node.args.args]
    if node.args.vararg:
        params.append(node.args.vararg.arg)
    params.extend(a.arg for a in node.args.kwonlyargs)
    return FunctionSummary(
        qualname=qualname or node.name,
        module=module,
        node=node,
        ops=_summarize_body(node.body),
        params=params,
    )
