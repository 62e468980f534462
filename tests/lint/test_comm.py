"""The transport vocabulary is pinned to the code it describes, and the
two certification tables are views over one root list."""

import ast
import inspect
from pathlib import Path

import pytest

from repro.lint import LintConfig, comm, load_project
from repro.lint.costverify import verify_costs
from repro.lint.flow import verify_transport
from repro.machine import Simulator

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
    """What ``_AMOUNT_ARG``'s ``allgather: 2`` / ``allreduce: 2`` got
    wrong: every role resolves through the one signature table."""
    assert ast.unparse(comm.amount_expr(_call("sim.allgather(vals, 2.0)"))) == "2.0"
    assert comm.amount_expr(_call("sim.allreduce(vals, 'sum')")) is None
    assert ast.unparse(comm.amount_expr(_call("sim.compute(r, flops=n)"))) == "n"
    exch = _call("sim.exchange([(0, 1, 4), (1, 0, 4)], 'halo')")
    assert ast.unparse(comm.argument(exch, "tag")) == "'halo'"
    assert comm.amount_expr(exch) is None  # charged per message, as a send


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
    costs = {r.key for r in verify_costs(project) if r.runs}  # minus the kernels surface
    assert transport == costs == roots
