"""The transport vocabulary and the certified comm roots.

The drivers talk to :class:`repro.machine.Simulator` (and every other
``Transport``) through a small vocabulary — ``exchange`` (the one
point-to-point call: it posts a message list, then drains it), the
collectives ``barrier``/``allreduce``/``allgather`` and the
accounting-only charges ``compute``/``advance``.  This module is the
**only** place the analyzer spells that vocabulary out: which call
names communicate (:func:`classify`), which calls charge the cost model
and as what (:func:`charged_as`), where each method keeps its charged
flops (:data:`SIGNATURES` + :func:`flop_charge_amount`), and which
functions are the certified roots (:data:`COMM_ROOTS`).  Every rule and
every ``flow`` analysis imports it; ``tests/lint/test_comm.py`` pins
:data:`SIGNATURES` to ``inspect.signature`` of the real methods.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .astutil import call_name

__all__ = [
    "COMM_ROOTS",
    "COLLECTIVE_NAMES",
    "CHARGE_NAMES",
    "SIGNATURES",
    "classify",
    "is_comm",
    "charged_as",
    "flop_charge_amount",
    "implements_transport",
]

COLLECTIVE_NAMES = ("barrier", "allreduce", "allgather")
#: Accounting-only entry points: they charge the cost model and move
#: no message.
CHARGE_NAMES = ("compute", "advance")

#: Receiver names (last dotted component) that denote the simulator /
#: transport a driver charges: ``sim.compute``, ``self.sim.exchange``.
SIM_RECEIVERS = frozenset({"sim", "simulator", "transport"})

#: Positional parameters of each transport method, in signature order
#: (``self`` dropped).  A message is accounting only: each ``exchange``
#: message ``(src, dst, nwords)`` carries no data slot.
SIGNATURES: dict[str, tuple[str, ...]] = {
    "exchange": ("messages", "tag"),
    "barrier": (),
    "allreduce": ("values", "op"),
    "allgather": ("values", "nwords_each"),
    "compute": ("rank", "flops"),
    "advance": ("rank", "seconds"),
}

#: Call shapes that charge flops: ``sim.compute`` and the engines'
#: wrappers around it, all ``(rank, flops)``.
_FLOP_CHARGE_NAMES = frozenset({"compute", "_charge_ops", "charge"})

#: The certified comm roots, as ``(project-relative module path, dotted
#: qualname)`` — ``--verify-transport`` has one row per entry, and
#: ``tests/machine/test_cost_model.py`` checks each one's charges.
COMM_ROOTS: tuple[tuple[str, str], ...] = (
    ("src/repro/solvers/parallel_matvec.py", "parallel_matvec"),
    ("src/repro/ilu/triangular.py", "parallel_triangular_solve"),
    ("src/repro/ilu/elimination.py", "EliminationEngine.run"),
    ("src/repro/ilu/interface_partition.py", "InterfacePartitionEngine.run"),
    ("src/repro/ilu/parallel_ilu0.py", "parallel_ilu0"),
)


def classify(call: ast.Call) -> str | None:
    """``exchange`` | ``collective`` | ``charge``, by the call's terminal
    name — or None for a call outside the vocabulary."""
    name = call_name(call)
    if name == "exchange":
        return "exchange"
    if name in COLLECTIVE_NAMES:
        return "collective"
    if name in CHARGE_NAMES:
        return "charge"
    return None


def is_comm(call: ast.Call) -> bool:
    """Does the call exchange messages or synchronise (by name)?"""
    return classify(call) in ("exchange", "collective")


def charged_as(call: ast.Call) -> str | None:
    """The ledger kind a call on a sim/transport receiver is charged as.

    ``compute``/``advance``/``barrier``/``allreduce``/``allgather``
    charge under their own name; ``exchange`` posts one ``send`` per
    message of its list.
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    receiver = func.value
    # ``self.sim.compute`` -> ``sim``; ``sim.exchange`` -> ``sim``
    last = receiver.attr if isinstance(receiver, ast.Attribute) else getattr(receiver, "id", None)
    if last not in SIM_RECEIVERS:
        return None
    kind = classify(call)
    if kind is None:
        return None
    return "send" if kind == "exchange" else func.attr


def flop_charge_amount(call: ast.Call) -> ast.expr | None:
    """The flop count of ``sim.compute`` / ``_charge_ops`` / ``charge``
    when passed positionally, else None."""
    if call_name(call) not in _FLOP_CHARGE_NAMES:
        return None
    pos = SIGNATURES["compute"].index("flops")
    return call.args[pos] if len(call.args) > pos else None


def implements_transport(method_names: Iterable[str]) -> bool:
    """A class defining both ``exchange`` and ``barrier`` *is* a
    transport: its methods are the machine layer, not SPMD driver
    code."""
    return {"exchange", "barrier"} <= set(method_names)
