"""Fault injection at the simulator layer: delivery effects, rank
faults, snapshot/restore bookkeeping."""

import pytest

from repro.faults import (
    FaultPlan,
    MessageFault,
    MessageLost,
    RankFailure,
    RankFault,
)
from repro.machine import (
    CRAY_T3D,
    IDEAL,
    MAX_RETRANSMITS,
    Simulator,
    TransportCapabilityError,
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

    def test_corrupt_is_refused(self):
        """A simulated message carries no data to corrupt: ``corrupt``
        is the worker transports' corrupt-result only."""
        plan = FaultPlan(message_faults=[MessageFault("corrupt")])
        with pytest.raises(TransportCapabilityError, match="corrupt"):
            make_sim(plan)
        # the virtual actions of the same plan object are still welcome
        make_sim(FaultPlan(message_faults=[MessageFault("drop"), MessageFault("duplicate")]))

    def test_unmatched_tag_is_unaffected(self):
        sim = make_sim(FaultPlan(message_faults=[MessageFault("drop", tag="other")]))
        sim.exchange([(0, 1, 1.0)], tag="t")
        assert sim.stats().messages == 1
        assert len(sim.fault_journal) == 0


class TestRankFaults:
    def test_crash_fires_on_compute(self):
        sim = make_sim(FaultPlan(rank_faults=[RankFault("crash", rank=1)]))
        sim.compute(0, 10.0)  # other ranks unaffected
        with pytest.raises(RankFailure):
            sim.compute(1, 10.0)

    def test_crash_waits_for_its_superstep(self):
        sim = make_sim(
            FaultPlan(rank_faults=[RankFault("crash", rank=0, superstep=2)]), nranks=2
        )
        sim.barrier()
        sim.barrier()
        assert sim.superstep == 2
        with pytest.raises(RankFailure):
            sim.barrier()

    def test_stall_advances_only_that_clock(self):
        sim = make_sim(
            FaultPlan(rank_faults=[RankFault("stall", rank=1, stall=3.0)]),
            model=IDEAL,
        )
        sim.compute(0, 5.0)
        sim.compute(1, 5.0)
        t0, t1 = sim.clock[0], sim.clock[1]
        assert t1 == pytest.approx(t0 + 3.0)
        assert sim.fault_journal.counts() == {"stall": 1}


class TestSnapshotRestore:
    def test_restore_rewinds_clocks_and_mail(self):
        sim = make_sim(FaultPlan(message_faults=[MessageFault("duplicate")]))
        sim.compute(0, 100.0)
        snap = sim.snapshot()
        t = sim.elapsed()
        sim.compute(0, 500.0)
        sim.exchange([(0, 1, 1.0)], tag="t")
        assert sim.pending_messages() == 1
        sim.restore(snap)
        assert sim.elapsed() == t
        assert sim.pending_messages() == 0

    def test_restore_is_journaled_under_faults(self):
        sim = make_sim(FaultPlan(rank_faults=[RankFault("crash", rank=0)]))
        snap = sim.snapshot()
        with pytest.raises(RankFailure):
            sim.compute(0, 1.0)
        sim.restore(snap, reason="crash recovery")
        counts = sim.fault_journal.counts()
        assert counts == {"crash": 1, "restore": 1}

    def test_one_snapshot_survives_two_restores(self):
        sim = make_sim(FaultPlan(message_faults=[MessageFault("duplicate")]))
        sim.exchange([(0, 1, 1.0)], tag="t")  # leaves one stale copy in flight
        snap = sim.snapshot()
        sim.compute(0, 1000.0)
        sim.exchange([(0, 1, 1.0)], tag="t")  # drains the stale copy
        arrival = sim.clock[1]
        for _ in range(2):
            sim.restore(snap)
            assert sim.pending_messages() == 1
            sim.compute(0, 1000.0)
            sim.exchange([(0, 1, 1.0)], tag="t")
            assert sim.clock[1] == arrival

    def test_in_flight_message_keeps_its_vector_clock(self):
        """Under ``trace=True`` a message carries the sender's vector
        clock; a copy in flight at the snapshot (a duplicate's stale
        copy) keeps it across a restore."""
        plan = FaultPlan(message_faults=[MessageFault("duplicate", tag="t")])
        sim = Simulator(2, CRAY_T3D, trace=True, faults=plan)
        sim.declare_write(0, "u-row", 7)
        sim.exchange([(0, 1, 1.0)], tag="t")  # its stale copy stays in flight
        snap = sim.snapshot()
        [(_arrival, clock)] = snap.mail[(0, 1, "t")]
        assert clock is not None and clock[0] > 0  # rank 0's send ticked it
        sim.exchange([(0, 1, 1.0)], tag="t")  # drains the stale copy
        assert sim.pending_messages() == 1
        sim.restore(snap)
        assert sim.snapshot().mail == snap.mail
