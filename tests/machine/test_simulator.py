"""Unit tests for the SPMD machine simulator."""

import numpy as np
import pytest

from repro.faults import FaultPlan, MessageFault
from repro.machine import IDEAL, ChargeLedger, MachineModel, Simulator

MODEL = MachineModel("test", flop_time=1e-6, latency=1e-4, byte_time=1e-8)


class TestCompute:
    def test_clock_advances(self):
        sim = Simulator(2, MODEL)
        sim.compute(0, 1000)
        assert sim.clock[0] == pytest.approx(1e-3)
        assert sim.clock[1] == 0.0

    def test_flops_counted(self):
        sim = Simulator(2, MODEL)
        sim.compute(0, 10)
        sim.compute(1, 30)
        st = sim.stats()
        assert st.total_flops == 40
        assert st.per_rank_flops == [10, 30]

    def test_negative_flops_rejected(self):
        sim = Simulator(1, MODEL)
        with pytest.raises(ValueError):
            sim.compute(0, -1)

    def test_bad_rank_rejected(self):
        sim = Simulator(2, MODEL)
        with pytest.raises(IndexError):
            sim.compute(2, 1)

    def test_advance_raw_seconds(self):
        sim = Simulator(1, MODEL)
        sim.advance(0, 0.5)
        assert sim.elapsed() == pytest.approx(0.5)


class TestPointToPoint:
    def test_message_arrival_and_counters(self):
        """A message is accounting only: ``exchange`` returns nothing and
        moves the receiver to the arrival time."""
        sim = Simulator(2, MODEL)
        assert sim.exchange([(0, 1, 10)]) is None
        assert sim.clock[1] == pytest.approx(MODEL.message_cost(10))
        assert (sim.stats().messages, sim.stats().words_sent) == (1, 10)
        assert sim.pending_messages() == 0

    def test_receiver_waits_for_arrival(self):
        sim = Simulator(2, MODEL)
        sim.compute(0, 1000)  # sender busy until 1e-3
        sim.exchange([(0, 1, 0)])
        assert sim.clock[1] >= 1e-3 + MODEL.latency

    def test_receiver_already_late_not_delayed(self):
        sim = Simulator(2, MODEL)
        sim.compute(1, 10_000)  # receiver clock way past arrival
        t = sim.clock[1]
        sim.exchange([(0, 1, 0)])
        assert sim.clock[1] == t

    def test_fifo_per_channel(self):
        """A stale duplicate is drained first: the next exchange on its
        channel consumes it and leaves its own message in the mailbox."""
        sim = Simulator(2, MODEL, faults=FaultPlan(message_faults=[MessageFault("duplicate")]))
        sim.exchange([(0, 1, 1)])
        first = sim.clock[1]
        sim.compute(0, 1000)
        sim.exchange([(0, 1, 1)])  # posted 1e-3 + latency later
        assert sim.clock[1] == first
        assert sim.pending_messages() == 1

    def test_tags_separate_channels(self):
        """A stale duplicate on one tag is not drained by an exchange on
        another."""
        plan = FaultPlan(message_faults=[MessageFault("duplicate", tag="t1")])
        sim = Simulator(2, MODEL, faults=plan)
        sim.exchange([(0, 1, 1)], tag="t1")
        sim.compute(0, 1000)
        sim.exchange([(0, 1, 1)], tag="t2")
        assert sim.clock[1] == pytest.approx(MODEL.latency + 1e-3 + MODEL.message_cost(1))
        assert sim.pending_messages() == 1  # the copy on t1

    def test_self_send_free(self):
        sim = Simulator(2, MODEL)
        sim.exchange([(0, 0, 100)])
        assert sim.clock[0] == 0.0
        assert sim.stats().messages == 0
        assert sim.pending_messages() == 0

    def test_message_counters(self):
        sim = Simulator(3, MODEL)
        sim.exchange([(0, 1, 5), (1, 2, 7)])
        st = sim.stats()
        assert st.messages == 2
        assert st.words_sent == 12

    def test_sender_pays_latency(self):
        sim = Simulator(2, MODEL)
        sim.exchange([(0, 1, 100)])
        assert sim.clock[0] == pytest.approx(MODEL.latency)


class TestExchange:
    def test_superstep_exchange(self):
        sim = Simulator(3, MODEL)
        assert sim.exchange([(0, 1, 1.0), (2, 1, 2.0), (1, 0, 3.0)]) is None
        # every receiver waits for its latest arrival; rank 2 only posts
        cost = MODEL.message_cost
        assert sim.clock.tolist() == pytest.approx([cost(3.0), cost(2.0), MODEL.latency])
        assert (sim.stats().messages, sim.stats().words_sent) == (3, 6.0)
        assert sim.pending_messages() == 0

    def test_posts_in_given_order_drains_in_pair_order(self):
        """The ledger's ``send`` events show the post order; a drop plan
        that loses every first post shows the drain order, in which each
        loss is found and re-posted."""
        messages = [(2, 1, 1.0), (1, 0, 2.0), (0, 1, 3.0)]
        ledger = ChargeLedger()
        sim = Simulator(3, MODEL, ledger=ledger)
        sim.exchange(messages, tag="t")
        sends = [(e.rank, e.amount) for e in ledger.events if e.kind == "send"]
        assert sends == [(2, 1.0), (1, 2.0), (0, 3.0)]
        assert sim.pending_messages() == 0

        plan = FaultPlan(message_faults=[MessageFault("drop", tag="t", count=3)])
        sim = Simulator(3, MODEL, faults=plan)
        sim.exchange(messages, tag="t")
        assert [(e.kind, e.src, e.dst) for e in sim.fault_journal.events] == [
            ("drop", 2, 1), ("drop", 1, 0), ("drop", 0, 1),
            ("lost", 0, 1), ("retransmit", 0, 1),
            ("lost", 1, 0), ("retransmit", 1, 0),
            ("lost", 2, 1), ("retransmit", 2, 1),
        ]
        assert sim.pending_messages() == 0

    @pytest.mark.parametrize(
        "bad, error",
        [((0, 5, 1.0), IndexError), ((-1, 1, 1.0), IndexError), ((1, 0, -1.0), ValueError)],
    )
    def test_rejected_exchange_posts_nothing(self, bad, error):
        """Every message is validated before the first post: a rejected
        call leaves clocks, counters and mailboxes as they were, and the
        next exchange on its tag drains its own message."""
        sim = Simulator(2, MODEL)
        sim.compute(1, 10)
        clock, stats = sim.clock.tolist(), sim.stats()
        with pytest.raises(error):
            sim.exchange([(0, 1, 1.0), bad], tag="t")
        assert sim.clock.tolist() == clock
        assert sim.stats() == stats
        assert sim.pending_messages() == 0
        sim.compute(0, 1000)
        sim.exchange([(0, 1, 1.0)], tag="t")
        assert sim.clock[1] == 1e-3 + MODEL.message_cost(1.0)

    def test_exchange_is_the_only_point_to_point_call(self):
        """There is no public post or drain to leave unmatched."""
        assert not hasattr(Simulator, "send") and not hasattr(Simulator, "recv")

    def test_triangular_solve_drop_journal_matches_golden(self):
        """The (src, dst)-sorted drain decides the order in which two
        dropped messages are found lost and re-posted; the solve then
        completes with the fault-free result."""
        from repro import ILUTParams, poisson2d
        from repro.ilu import parallel_ilut_star
        from repro.ilu.triangular import parallel_triangular_solve
        from repro.machine import CRAY_T3D

        A = poisson2d(10)
        r = parallel_ilut_star(A, ILUTParams(fill=5, threshold=1e-3, k=2), 4, seed=0)
        plan = FaultPlan(
            message_faults=[
                MessageFault("delay", tag="fwd", count=2, delay=1e-3),
                MessageFault("drop", tag="bwd", skip=1, count=2),
            ]
        )
        b = np.ones(A.shape[0])
        sim = Simulator(4, CRAY_T3D, faults=plan)
        x = parallel_triangular_solve(r.factors, b, nranks=4, transport=sim).x
        assert sim.fault_journal.signature() == (
            (0, "delay", 1, -1, 0, 2, "('fwd', 0)", "+0.001s"),
            (1, "delay", 1, -1, 0, 3, "('fwd', 0)", "+0.001s"),
            (2, "drop", 15, -1, 1, 2, "('bwd', 13)", ""),
            (3, "drop", 15, -1, 1, 3, "('bwd', 13)", ""),
            (4, "lost", 15, -1, 1, 2, "('bwd', 13)", ""),
            (5, "retransmit", 15, -1, 1, 2, "('bwd', 13)", "attempt 1"),
            (6, "lost", 15, -1, 1, 3, "('bwd', 13)", ""),
            (7, "retransmit", 15, -1, 1, 3, "('bwd', 13)", "attempt 1"),
        )
        clean = parallel_triangular_solve(r.factors, b, nranks=4, transport="simulator").x
        assert x.tobytes() == clean.tobytes()


class TestCollectives:
    def test_barrier_synchronises(self):
        sim = Simulator(3, MODEL)
        sim.compute(1, 5000)
        t_slowest = sim.clock[1]
        sim.barrier()
        assert np.all(sim.clock == sim.clock[0])  # all equal
        assert sim.clock[0] == pytest.approx(
            t_slowest + MODEL.collective_cost(3, 0.0)
        )
        assert sim.stats().barriers == 1

    def test_allreduce_sum(self):
        sim = Simulator(4, MODEL)
        assert sim.allreduce([1, 2, 3, 4]) == 10

    def test_allreduce_ops(self):
        sim = Simulator(3, MODEL)
        assert sim.allreduce([3, 1, 2], op="max") == 3
        assert sim.allreduce([3, 1, 2], op="min") == 1
        assert bool(sim.allreduce([False, True, False], op="or")) is True

    def test_allreduce_bad_op(self):
        sim = Simulator(2, MODEL)
        with pytest.raises(ValueError):
            sim.allreduce([1, 2], op="prod")

    def test_allreduce_requires_value_per_rank(self):
        sim = Simulator(3, MODEL)
        with pytest.raises(ValueError):
            sim.allreduce([1, 2])

    def test_allreduce_charges_tree_and_syncs(self):
        sim = Simulator(4, MODEL)
        sim.compute(2, 1000)
        t_before = sim.clock.max()
        sim.allreduce([0, 0, 0, 0])
        expected = t_before + MODEL.collective_cost(4, 1.0)
        assert np.allclose(sim.clock, expected)

    def test_allgather(self):
        sim = Simulator(3, MODEL)
        assert sim.allgather(["a", "b", "c"]) == ["a", "b", "c"]

    def test_allgather_length_check(self):
        sim = Simulator(3, MODEL)
        with pytest.raises(ValueError):
            sim.allgather(["a"])


class TestInvariants:
    def test_clock_monotone_under_random_ops(self, rng):
        sim = Simulator(4, MODEL)
        prev = sim.clock.copy()
        for _ in range(200):
            op = rng.integers(4)
            if op == 0:
                sim.compute(int(rng.integers(4)), float(rng.integers(100)))
            elif op == 1:
                s, d = rng.integers(4), rng.integers(4)
                sim.exchange([(int(s), int(d), float(rng.integers(50)))], tag="r")
            elif op == 2:
                sim.barrier()
            else:
                sim.allreduce(list(rng.integers(10, size=4)))
            assert np.all(sim.clock >= prev - 1e-15)
            prev = sim.clock.copy()

    def test_nranks_validation(self):
        with pytest.raises(ValueError):
            Simulator(0, MODEL)

    def test_total_flops_is_numpys_pairwise_sum(self):
        """``total_flops`` is ``np.sum`` over the per-rank vector.  At 16
        ranks these charges make it differ from a sequential sum, so the
        summation order is pinned where the fingerprint corpus (at most
        7 ranks) cannot see it."""
        charges = (np.random.default_rng(0).random(16) * 1e3).tolist()
        assert float(np.sum(charges)) != sum(charges)
        sim = Simulator(16, MODEL)
        for r, fl in enumerate(charges):
            sim.compute(r, fl)
        st = sim.stats()
        assert st.per_rank_flops == charges
        assert st.total_flops == float(np.sum(st.per_rank_flops))

    def test_elapsed_is_max(self):
        sim = Simulator(3, MODEL)
        sim.compute(2, 777)
        assert sim.elapsed() == pytest.approx(sim.clock[2])

    def test_pending_messages_tracked(self):
        """Only a duplicate fault leaves a posted copy undrained."""
        sim = Simulator(2, MODEL)
        sim.exchange([(0, 1, 1)])
        assert sim.pending_messages() == 0
        dup = Simulator(2, MODEL, faults=FaultPlan(message_faults=[MessageFault("duplicate")]))
        dup.exchange([(0, 1, 1)])
        assert dup.pending_messages() == 1

    def test_ideal_model_zero_comm_time(self):
        sim = Simulator(2, IDEAL)
        sim.exchange([(0, 1, 10_000)])
        assert sim.elapsed() == 0.0
