"""Fault injection at the simulator layer: delivery effects of message
faults, region faults read at ``pardo`` dispatch and region retry."""

import pytest

from repro.faults import (
    FaultPlan,
    MessageFault,
    MessageLost,
    RankFault,
)
from repro.machine import (
    CRAY_T3D,
    IDEAL,
    MAX_RETRANSMITS,
    ResultUnpicklable,
    Simulator,
)


def make_sim(plan, nranks=2, model=CRAY_T3D):
    return Simulator(nranks, model, faults=plan)


class TestMessageFaults:
    def test_drop_raises_message_lost(self):
        """A message dropped on every retransmit escalates as
        ``MessageLost``; each re-post is journaled."""
        plan = FaultPlan(message_faults=[MessageFault("drop", count=MAX_RETRANSMITS + 1)])
        sim = make_sim(plan)
        with pytest.raises(MessageLost, match="was lost"):
            sim.exchange([(0, 1, 4.0)], tag="data")
        assert sim.pending_messages() == 0  # charged, never enqueued
        assert sim.fault_journal.counts() == {
            "drop": MAX_RETRANSMITS + 1, "lost": MAX_RETRANSMITS + 1,
            "retransmit": MAX_RETRANSMITS,
        }

    def test_drop_still_charges_the_sender(self):
        """A dropped post and its retransmit are both charged."""
        healthy = Simulator(2, CRAY_T3D)
        healthy.exchange([(0, 1, 4.0), (0, 1, 4.0)], tag="data")
        sim = make_sim(FaultPlan(message_faults=[MessageFault("drop")]))
        sim.exchange([(0, 1, 4.0)], tag="data")
        assert sim.stats().messages == healthy.stats().messages
        assert sim.stats().words_sent == healthy.stats().words_sent
        assert sim.clock[0] == healthy.clock[0]

    def test_delay_pushes_arrival_back(self):
        base = Simulator(2, CRAY_T3D)
        base.exchange([(0, 1, 1.0)], tag="t")
        sim = make_sim(
            FaultPlan(message_faults=[MessageFault("delay", delay=5.0)])
        )
        sim.exchange([(0, 1, 1.0)], tag="t")
        assert sim.clock[1] == pytest.approx(base.clock[1] + 5.0)
        assert sim.clock[0] == base.clock[0]  # the sender pays no delay

    def test_duplicate_enqueues_second_copy(self):
        sim = make_sim(FaultPlan(message_faults=[MessageFault("duplicate")]))
        sim.exchange([(0, 1, 2.0)], tag="t")
        assert (sim.stats().messages, sim.stats().words_sent) == (2, 4.0)
        arrival = sim.clock[1]
        assert sim.pending_messages() == 1  # the stale copy
        sim.exchange([(0, 1, 2.0)], tag="t")  # drains the stale copy first
        assert sim.clock[1] == arrival
        assert sim.pending_messages() == 1
        assert sim.fault_journal.counts() == {"duplicate": 1}

    def test_corrupt_result_recovers(self):
        """``corrupt`` is read at region dispatch as corrupt-result: the
        rank's thunk runs, its result is lost, the region is retried."""
        calls = []
        sim = make_sim(FaultPlan(message_faults=[MessageFault("corrupt", src=1)]))
        out = sim.pardo([lambda: calls.append(0) or "a", lambda: calls.append(1) or "b"])
        assert out == ["a", "b"]
        assert calls == [0, 1, 0, 1]  # the corrupt attempt ran every thunk
        assert sim.region_recoveries == 1
        assert sim.fault_journal.counts() == {"corrupt": 1, "region-retry": 1}
        # a message fault of another kind is not read at dispatch
        sim = make_sim(FaultPlan(message_faults=[MessageFault("drop")]))
        assert sim.pardo([lambda: 0, lambda: 1]) == [0, 1]
        assert len(sim.fault_journal) == 0

    def test_retry_budget_exhausted_surfaces_typed(self):
        sim = make_sim(FaultPlan(message_faults=[MessageFault("corrupt", src=0, count=3)]))
        with pytest.raises(ResultUnpicklable):
            sim.pardo([lambda: 0, lambda: 1])
        assert sim.region_recoveries == sim.supervision.region_retries == 2

    def test_unmatched_tag_is_unaffected(self):
        sim = make_sim(FaultPlan(message_faults=[MessageFault("drop", tag="other")]))
        sim.exchange([(0, 1, 1.0)], tag="t")
        assert sim.stats().messages == 1
        assert len(sim.fault_journal) == 0


class TestRankFaults:
    def test_crash_fires_at_region_dispatch(self):
        """A crash fails the attempt before the rank's thunk runs; the
        region is retried and its results are the undisturbed ones."""
        calls = []
        sim = make_sim(FaultPlan(rank_faults=[RankFault("crash", rank=1)]))
        sim.compute(1, 10.0)  # charges are not where a crash fires
        out = sim.pardo([lambda: calls.append(0) or "a", lambda: calls.append(1) or "b"])
        assert out == ["a", "b"]
        assert calls == [0, 0, 1]
        assert sim.region_recoveries == 1
        assert sim.fault_journal.counts() == {"crash": 1, "region-retry": 1}

    def test_crash_waits_for_its_superstep(self):
        sim = make_sim(
            FaultPlan(rank_faults=[RankFault("crash", rank=0, superstep=2)]), nranks=2
        )
        sim.pardo([lambda: 0, lambda: 1])
        sim.barrier()
        sim.barrier()
        sim.pardo([None, lambda: 1])  # rank 0 idle: nothing to crash
        assert sim.superstep == 2 and sim.region_recoveries == 0
        sim.pardo([lambda: 0, None])
        assert sim.region_recoveries == 1

    def test_stall_advances_only_that_clock(self):
        sim = make_sim(
            FaultPlan(rank_faults=[RankFault("stall", rank=1, stall=3.0)]),
            model=IDEAL,
        )
        sim.pardo([lambda: 0, lambda: 1])
        sim.compute(0, 5.0)
        sim.compute(1, 5.0)
        t0, t1 = sim.clock[0], sim.clock[1]
        assert t1 == pytest.approx(t0 + 3.0)
        assert sim.fault_journal.counts() == {"stall": 1}
        assert sim.region_recoveries == 0
