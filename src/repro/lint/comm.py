"""The transport vocabulary, the certified comm roots, and comm sites.

The drivers talk to :class:`repro.machine.Simulator` (and every other
``Transport``) through a small vocabulary — ``send``/``recv`` (plus
``*recv*``-named retry helpers), ``exchange``, the collectives
``barrier``/``allreduce``/``allgather`` and the accounting-only charges
``compute``/``advance``.  This module is the **only** place the
analyzer spells that vocabulary out: which call names communicate
(:func:`classify`), which calls charge the cost model and as what
(:func:`charged_as`), where each method keeps its endpoints, tag and
charged amount (:data:`SIGNATURES` + :func:`argument`), and
which functions are the certified roots (:data:`COMM_ROOTS`).  Every
rule and every ``flow`` analysis imports it; ``tests/lint/test_comm.py``
pins :data:`SIGNATURES` to ``inspect.signature`` of the real methods.

On top of the vocabulary it extracts every communication call site of a
module together with

* its **tag pattern** — constants kept, variable parts widened to a
  wildcard, so ``tag=("fwd", lvl_idx)`` becomes ``("fwd", *)`` and can
  be matched against the receiving side, and
* its **enclosing control flow** — nearest loop and the chain of
  branch conditions — so rules can reason about loop-bound mismatches
  and rank-dependent reachability.

This is a *summary*, not a proof: dynamic tags (a bare variable) are
treated as opaque and exempt from matching, which keeps the analysis
sound-for-alarms (no false tag-mismatch reports) at the cost of not
checking fully dynamic protocols.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from .astutil import ancestors, call_name, enclosing_function, nearest_loop

__all__ = [
    "WILDCARD",
    "COMM_KINDS",
    "COMM_ROOTS",
    "COLLECTIVE_NAMES",
    "CHARGE_NAMES",
    "SIGNATURES",
    "RANK_NAMES",
    "RANK_RANGE_MARKERS",
    "classify",
    "is_comm",
    "charged_as",
    "argument",
    "amount_expr",
    "flop_charge_amount",
    "implements_transport",
    "CommSite",
    "comm_sites",
    "tags_match",
    "render_tag",
    "branch_conditions",
]

#: Matches anything during tag unification.
WILDCARD = "*"

#: The communication kinds of the site list and the summary IR
#: (``recv``-named helpers that take a tag are folded into ``recv``).
COMM_KINDS = ("send", "recv", "collective", "exchange")

COLLECTIVE_NAMES = ("barrier", "allreduce", "allgather")
#: Accounting-only entry points: they charge the cost model and move
#: no message.
CHARGE_NAMES = ("compute", "advance")

#: Receiver names (last dotted component) that denote the simulator /
#: transport a driver charges: ``sim.compute``, ``self.sim.send``.
SIM_RECEIVERS = frozenset({"sim", "simulator", "transport"})

#: Positional parameters of each transport method, in signature order
#: (``self`` dropped).  A message is accounting only: ``send`` and each
#: ``exchange`` message ``(src, dst, nwords)`` carry no data slot.
#: ``recv_helper`` is the engines' retry wrapper
#: ``_recv_retry(src, dst, tag, nwords)`` — sender first, unlike
#: ``recv(dst, src, tag)``.
SIGNATURES: dict[str, tuple[str, ...]] = {
    "send": ("src", "dst", "nwords", "tag"),
    "recv": ("dst", "src", "tag"),
    "recv_helper": ("src", "dst", "tag", "nwords"),
    "exchange": ("messages", "tag"),
    "barrier": (),
    "allreduce": ("values", "op"),
    "allgather": ("values", "nwords_each"),
    "compute": ("rank", "flops"),
    "advance": ("rank", "seconds"),
}

#: The parameter holding the charged quantity, per charging method.
_AMOUNT_PARAM = {
    "compute": "flops",
    "advance": "seconds",
    "send": "nwords",
    "allgather": "nwords_each",
}

#: Call shapes that charge flops: ``sim.compute`` and the engines'
#: wrappers around it, all ``(rank, flops)``.
_FLOP_CHARGE_NAMES = frozenset({"compute", "_charge_ops", "charge"})

#: The certified comm roots, as ``(project-relative module path, dotted
#: qualname)`` — every ``--verify-*`` table has one row per entry.
COMM_ROOTS: tuple[tuple[str, str], ...] = (
    ("src/repro/solvers/parallel_matvec.py", "parallel_matvec"),
    ("src/repro/ilu/triangular.py", "parallel_triangular_solve"),
    ("src/repro/graph/distributed_mis.py", "distributed_two_step_luby_mis"),
    ("src/repro/ilu/elimination.py", "EliminationEngine.run"),
    ("src/repro/ilu/interface_partition.py", "InterfacePartitionEngine.run"),
    ("src/repro/ilu/parallel_ilu0.py", "parallel_ilu0"),
)

#: Identifiers that denote a rank in this codebase's driver idiom.
RANK_NAMES = frozenset({"rank", "src", "dst", "r", "rk", "pe", "proc", "me", "myrank"})
#: Attribute/name fragments that mark an iterable as "over the ranks".
RANK_RANGE_MARKERS = ("nranks", "nprocs", "num_ranks", "world_size")


# ----------------------------------------------------------------------
# call classification and argument lookup
# ----------------------------------------------------------------------


def classify(call: ast.Call) -> str | None:
    """``send`` | ``recv`` | ``recv_helper`` | ``exchange`` |
    ``collective`` | ``charge``, by the call's terminal name — or None
    for a call outside the vocabulary.

    A ``recv_helper`` (``_recv_retry``, ``recv_with_timeout``, ...) only
    drains when it actually takes a tag; :func:`comm_sites` and the
    summary IR apply that test.
    """
    name = call_name(call)
    if not name:
        return None
    if name == "send":
        return "send"
    if name == "recv":
        return "recv"
    if name in COLLECTIVE_NAMES:
        return "collective"
    if name == "exchange":
        return "exchange"
    if name in CHARGE_NAMES:
        return "charge"
    if "recv" in name:
        return "recv_helper"
    return None


def is_comm(call: ast.Call) -> bool:
    """Does the call post, drain or synchronise (by name)?"""
    return classify(call) not in (None, "charge")


def charged_as(call: ast.Call) -> str | None:
    """The ledger kind a call on a sim/transport receiver is charged as.

    ``compute``/``advance``/``send``/``barrier``/``allreduce``/
    ``allgather`` charge under their own name; ``exchange`` posts one
    ``send`` per message of its list; ``recv`` drains and charges
    nothing.
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    receiver = func.value
    # ``self.sim.compute`` -> ``sim``; ``sim.send`` -> ``sim``
    last = receiver.attr if isinstance(receiver, ast.Attribute) else getattr(receiver, "id", None)
    if last not in SIM_RECEIVERS:
        return None
    kind = classify(call)
    if kind in (None, "recv", "recv_helper"):
        return None
    return "send" if kind == "exchange" else func.attr


def argument(call: ast.Call, param: str) -> ast.expr | None:
    """The expression bound to ``param`` of a vocabulary call, whether
    passed positionally or by keyword (None when defaulted or the
    method has no such parameter)."""
    kind = classify(call)
    signature = SIGNATURES.get("recv_helper" if kind == "recv_helper" else call_name(call), ())
    if param in signature:
        pos = signature.index(param)
        if len(call.args) > pos:
            return call.args[pos]
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    return None


def amount_expr(call: ast.Call) -> ast.expr | None:
    """The charged quantity of a charging call (None for ``barrier``,
    ``allreduce`` and ``exchange``, whose cost is not an argument)."""
    param = _AMOUNT_PARAM.get(call_name(call))
    return argument(call, param) if param is not None else None


def flop_charge_amount(call: ast.Call) -> ast.expr | None:
    """The flop count of ``sim.compute`` / ``_charge_ops`` / ``charge``
    when passed positionally, else None."""
    if call_name(call) not in _FLOP_CHARGE_NAMES:
        return None
    pos = SIGNATURES["compute"].index("flops")
    return call.args[pos] if len(call.args) > pos else None


def implements_transport(method_names: Iterable[str]) -> bool:
    """A class defining both ``send`` and ``recv`` *is* a transport: its
    methods are queue operations, not SPMD driver code."""
    return {"send", "recv"} <= set(method_names)


# ----------------------------------------------------------------------
# communication sites
# ----------------------------------------------------------------------


@dataclass
class CommSite:
    """One communication call site."""

    kind: str  # one of COMM_KINDS
    call: ast.Call
    #: Normalised tag: a tuple of constants/WILDCARD, or None when the
    #: whole tag is dynamic (exempt from matching), for send/recv kinds.
    tag: tuple[object, ...] | None
    func: ast.FunctionDef | ast.AsyncFunctionDef | None
    loop: ast.For | ast.While | None

    @property
    def line(self) -> int:
        return self.call.lineno

    @property
    def col(self) -> int:
        return self.call.col_offset


def _normalise_tag(node: ast.AST) -> tuple[object, ...] | None:
    """Constant-fold a tag expression into a matchable pattern.

    ``None`` means "fully dynamic" — the site neither satisfies nor
    requires a match.  Constants become 1-tuples so ``tag="halo"`` and a
    hypothetical ``tag=("halo",)`` stay distinct from each other but
    both concrete.
    """
    if isinstance(node, ast.Constant):
        return (node.value,)
    if isinstance(node, ast.Tuple):
        out: list[object] = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant):
                out.append(elt.value)
            else:
                out.append(WILDCARD)
        return tuple(out)
    return None


def comm_sites(calls: Iterable[ast.Call]) -> list[CommSite]:
    """The communication sites among ``calls`` (a module's call nodes,
    parents attached), in the order given."""
    sites: list[CommSite] = []
    for node in calls:
        kind = classify(node)
        if kind in (None, "charge"):
            continue
        tag: tuple[object, ...] | None = None
        if kind != "collective":
            tag_node = argument(node, "tag")
            if kind == "recv_helper" and tag_node is None:
                # a recv-ish call that takes no tag at all (e.g. a tracer
                # callback) is not communication — don't record it
                continue
            # an absent tag is the concrete default (None,): untagged
            # sends must pair with untagged recvs
            tag = (None,) if tag_node is None else _normalise_tag(tag_node)
        sites.append(
            CommSite(
                kind="recv" if kind == "recv_helper" else kind,
                call=node,
                tag=tag,
                func=enclosing_function(node),
                loop=nearest_loop(node),
            )
        )
    return sites


def tags_match(a: tuple[object, ...], b: tuple[object, ...]) -> bool:
    """Unify two concrete tag patterns (wildcards match anything)."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x is WILDCARD or y is WILDCARD:
            continue
        if x != y or type(x) is not type(y):
            return False
    return True


def render_tag(tag: tuple[object, ...]) -> str:
    parts = ", ".join("*" if t is WILDCARD else repr(t) for t in tag)
    return f"({parts})" if len(tag) != 1 else parts


def branch_conditions(site: CommSite) -> list[ast.expr]:
    """The ``if``/``while`` tests controlling reachability of ``site``,
    innermost first, stopping at the function boundary."""
    out: list[ast.expr] = []
    for anc in ancestors(site.call):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
        if isinstance(anc, (ast.If, ast.While)):
            out.append(anc.test)
        elif isinstance(anc, ast.IfExp):
            out.append(anc.test)
    return out
