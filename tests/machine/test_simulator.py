"""Unit tests for the SPMD machine simulator."""

import numpy as np
import pytest

from repro.machine import IDEAL, MachineModel, Simulator

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
    def test_payload_delivered(self):
        sim = Simulator(2, MODEL)
        sim.send(0, 1, {"x": 3}, nwords=10)
        assert sim.recv(1, 0) == {"x": 3}

    def test_receiver_waits_for_arrival(self):
        sim = Simulator(2, MODEL)
        sim.compute(0, 1000)  # sender busy until 1e-3
        sim.send(0, 1, None, nwords=0)
        sim.recv(1, 0)
        assert sim.clock[1] >= 1e-3 + MODEL.latency

    def test_receiver_already_late_not_delayed(self):
        sim = Simulator(2, MODEL)
        sim.send(0, 1, None, nwords=0)
        sim.compute(1, 10_000)  # receiver clock way past arrival
        t = sim.clock[1]
        sim.recv(1, 0)
        assert sim.clock[1] == t

    def test_fifo_per_channel(self):
        sim = Simulator(2, MODEL)
        sim.send(0, 1, "a", 1)
        sim.send(0, 1, "b", 1)
        assert sim.recv(1, 0) == "a"
        assert sim.recv(1, 0) == "b"

    def test_tags_separate_channels(self):
        sim = Simulator(2, MODEL)
        sim.send(0, 1, "x", 1, tag="t1")
        sim.send(0, 1, "y", 1, tag="t2")
        assert sim.recv(1, 0, tag="t2") == "y"
        assert sim.recv(1, 0, tag="t1") == "x"

    def test_self_send_free(self):
        sim = Simulator(2, MODEL)
        sim.send(0, 0, "loop", 100)
        assert sim.recv(0, 0) == "loop"
        assert sim.clock[0] == 0.0
        assert sim.stats().messages == 0

    def test_message_counters(self):
        sim = Simulator(3, MODEL)
        sim.send(0, 1, None, 5)
        sim.send(1, 2, None, 7)
        st = sim.stats()
        assert st.messages == 2
        assert st.words_sent == 12

    def test_sender_pays_latency(self):
        sim = Simulator(2, MODEL)
        sim.send(0, 1, None, 100)
        assert sim.clock[0] == pytest.approx(MODEL.latency)


class TestExchange:
    def test_superstep_exchange(self):
        sim = Simulator(3, MODEL)
        msgs = [(0, 1, "a", 1.0), (2, 1, "b", 1.0), (1, 0, "c", 1.0)]
        out = sim.exchange(msgs)
        assert [p for _, p in out[1]] == ["a", "b"]
        assert out[0] == [(1, "c")]

    def test_posts_in_given_order_drains_in_pair_order(self):
        sim = Simulator(3, MODEL)
        calls = []
        send, recv = sim.send, sim.recv
        sim.send = lambda s, d, *a, **k: (calls.append(("send", s, d)), send(s, d, *a, **k))[1]
        sim.recv = lambda d, s, **k: (calls.append(("recv", s, d)), recv(d, s, **k))[1]
        sim.exchange([(2, 1, "b", 1.0), (1, 0, "c", 1.0), (0, 1, "a", 1.0)], tag="t")
        assert calls == [
            ("send", 2, 1), ("send", 1, 0), ("send", 0, 1),
            ("recv", 0, 1), ("recv", 1, 0), ("recv", 2, 1),
        ]
        assert sim.pending_messages() == 0

    def test_triangular_solve_drop_journal_matches_golden(self):
        """The (src, dst)-sorted drain decides *which* of two dropped
        messages is reported lost; signature captured before the drivers
        moved onto ``exchange``."""
        from repro import ILUTParams, poisson2d
        from repro.faults import FaultPlan, MessageFault, MessageLost
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
        for backend in ("reference", "vectorized"):
            sim = Simulator(4, CRAY_T3D, faults=plan)
            with pytest.raises(MessageLost):
                parallel_triangular_solve(
                    r.factors, np.ones(A.shape[0]), nranks=4, transport=sim, backend=backend
                )
            assert sim.fault_journal.signature() == (
                (0, "delay", 1, -1, 0, 2, "('fwd', 0)", "+0.001s"),
                (1, "delay", 1, -1, 0, 3, "('fwd', 0)", "+0.001s"),
                (2, "drop", 15, -1, 1, 2, "('bwd', 13)", ""),
                (3, "drop", 15, -1, 1, 3, "('bwd', 13)", ""),
                (4, "lost", 15, -1, 1, 2, "('bwd', 13)", ""),
            )


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
                sim.send(int(s), int(d), None, float(rng.integers(50)), tag="r")
            elif op == 2:
                sim.barrier()
            else:
                sim.allreduce(list(rng.integers(10, size=4)))
            assert np.all(sim.clock >= prev - 1e-15)
            prev = sim.clock.copy()

    def test_nranks_validation(self):
        with pytest.raises(ValueError):
            Simulator(0, MODEL)

    def test_elapsed_is_max(self):
        sim = Simulator(3, MODEL)
        sim.compute(2, 777)
        assert sim.elapsed() == pytest.approx(sim.clock[2])

    def test_pending_messages_tracked(self):
        sim = Simulator(2, MODEL)
        sim.send(0, 1, None, 1)
        assert sim.pending_messages() == 1
        sim.recv(1, 0)
        assert sim.pending_messages() == 0

    def test_ideal_model_zero_comm_time(self):
        sim = Simulator(2, IDEAL)
        sim.send(0, 1, None, 10_000)
        sim.recv(1, 0)
        assert sim.elapsed() == 0.0
