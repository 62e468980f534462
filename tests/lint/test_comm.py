"""The transport vocabulary is pinned to the code it describes, and the
transport table and the charge-model tests cover one root list."""

import ast
import inspect
from pathlib import Path

import pytest

from repro.lint import LintConfig, comm, load_project
from repro.lint.flow import verify_transport
from repro.machine import Simulator

from ..machine.test_cost_model import HARNESSES

REPO = Path(__file__).resolve().parents[2]

#: Public methods of the transport contract (``Simulator``: the worker
#: transports inherit it) that neither post, drain, synchronise nor
#: charge — every other one must be in the vocabulary.
NEUTRAL = {
    "pardo", "heartbeat", "declare_read", "declare_write", "elapsed",
    "utilization", "pending_messages", "stats", "close", "begin_scope",
    "end_scope",
}


def _call(src: str) -> ast.Call:
    return ast.parse(src, mode="eval").body


def _positional(func) -> tuple[str, ...]:
    return tuple(inspect.signature(func).parameters)[1:]  # drop self


@pytest.mark.parametrize(
    "method", ["exchange", "allgather", "allreduce", "compute", "advance"]
)
def test_signatures_match_the_simulator(method):
    assert comm.SIGNATURES[method] == _positional(getattr(Simulator, method))


def test_messages_are_accounting_only():
    """``exchange`` has no data slot: a message is ``(src, dst, nwords)``
    under one tag, and the exchange hands nothing back."""
    assert comm.SIGNATURES["exchange"] == ("messages", "tag")
    assert inspect.signature(Simulator.exchange).return_annotation in (None, "None")


def test_role_positions_follow_the_signatures():
    """The flop count resolves through the one signature table."""
    assert ast.unparse(comm.flop_charge_amount(_call("sim.compute(r, n)"))) == "n"
    assert ast.unparse(comm.flop_charge_amount(_call("self._charge_ops(r, 2 * k)"))) == "2 * k"
    assert comm.flop_charge_amount(_call("sim.compute(r)")) is None
    assert comm.flop_charge_amount(_call("sim.advance(r, 1.0)")) is None


def test_every_posting_or_charging_transport_method_is_classified():
    public = {
        name
        for name, member in inspect.getmembers(Simulator, callable)
        if not name.startswith("_")
    }
    vocabulary = {n for n in public if comm.classify(_call(f"sim.{n}()")) is not None}
    assert vocabulary == set(comm.SIGNATURES)
    assert public - vocabulary == NEUTRAL
    # ... and each charges the ledger under the kind the simulator records
    assert {n: comm.charged_as(_call(f"sim.{n}()")) for n in sorted(vocabulary)} == {
        "advance": "advance", "allgather": "allgather", "allreduce": "allreduce",
        "barrier": "barrier", "compute": "compute", "exchange": "send",
    }
    assert comm.charged_as(_call("queue.exchange()")) is None  # not a transport receiver


def test_both_tables_certify_the_same_roots():
    project = load_project([REPO / "src" / "repro"], LintConfig(project_root=REPO))
    roots = {f"{m}::{q}" for m, q in comm.COMM_ROOTS}
    transport = {r.key for r in verify_transport(project)}
    assert transport == roots
    assert set(HARNESSES) == set(comm.COMM_ROOTS)
