"""Unit tests for the vector-clock access tracer."""

import numpy as np
import pytest

from repro.machine import MachineModel, Simulator
from repro.verify import READ, WRITE, AccessTracer, happens_before

MODEL = MachineModel("test", flop_time=1e-6, latency=1e-4, byte_time=1e-8)


class TestTracerClocks:
    def test_no_sync_means_concurrent(self):
        tr = AccessTracer(2)
        tr.write(0, "row", 1)
        tr.write(1, "row", 1)
        a, b = tr.accesses("row", 1)
        assert not happens_before(a, b)
        assert not happens_before(b, a)

    def test_same_rank_is_program_ordered(self):
        tr = AccessTracer(2)
        tr.write(0, "row", 1)
        tr.read(0, "row", 1)
        a, b = tr.accesses("row", 1)
        assert happens_before(a, b)
        assert not happens_before(b, a)

    def test_send_recv_edge_orders(self):
        tr = AccessTracer(2)
        tr.write(0, "row", 3)
        attached = tr.on_send(0)
        tr.on_recv(1, attached)
        tr.read(1, "row", 3)
        a, b = tr.accesses("row", 3)
        assert happens_before(a, b)

    def test_access_after_send_not_ordered(self):
        tr = AccessTracer(2)
        attached = tr.on_send(0)
        tr.write(0, "row", 3)  # after the send: the edge does not cover it
        tr.on_recv(1, attached)
        tr.read(1, "row", 3)
        a, b = tr.accesses("row", 3)
        assert not happens_before(a, b)
        assert not happens_before(b, a)

    def test_collective_orders_both_directions(self):
        tr = AccessTracer(3)
        tr.write(0, "row", 5)
        tr.on_collective()
        tr.read(2, "row", 5)
        a, b = tr.accesses("row", 5)
        assert happens_before(a, b)
        # and pre-barrier access of another rank vs post-barrier write
        tr2 = AccessTracer(3)
        tr2.read(1, "row", 5)
        tr2.on_collective()
        tr2.write(0, "row", 5)
        a2, b2 = tr2.accesses("row", 5)
        assert happens_before(a2, b2)

    def test_accesses_after_collective_are_concurrent(self):
        tr = AccessTracer(2)
        tr.on_collective()
        tr.write(0, "row", 1)
        tr.write(1, "row", 1)
        a, b = tr.accesses("row", 1)
        assert not happens_before(a, b)
        assert not happens_before(b, a)

    def test_transitive_message_chain(self):
        # 0 -> 1 -> 2 carries the knowledge of rank 0's write to rank 2
        tr = AccessTracer(3)
        tr.write(0, "row", 9)
        tr.on_recv(1, tr.on_send(0))
        tr.on_recv(2, tr.on_send(1))
        tr.read(2, "row", 9)
        a, b = tr.accesses("row", 9)
        assert happens_before(a, b)

    def test_epoch_counts_collectives(self):
        tr = AccessTracer(2)
        assert tr.epoch == 0
        tr.on_collective()
        tr.on_collective()
        assert tr.epoch == 2

    def test_dedup_of_identical_consecutive_accesses(self):
        tr = AccessTracer(2)
        for _ in range(10):
            tr.read(0, "row", 1)
        assert len(tr.accesses("row", 1)) == 1
        # a clock event separates snapshots -> new record
        tr.on_send(0)
        tr.read(0, "row", 1)
        assert len(tr.accesses("row", 1)) == 2

    def test_kind_change_breaks_dedup(self):
        tr = AccessTracer(2)
        tr.read(0, "row", 1)
        tr.write(0, "row", 1)
        tr.read(0, "row", 1)
        kinds = [a.kind for a in tr.accesses("row", 1)]
        assert kinds == [READ, WRITE, READ]

    def test_rank_bounds_checked(self):
        tr = AccessTracer(2)
        with pytest.raises(IndexError):
            tr.read(2, "row", 0)
        with pytest.raises(ValueError):
            AccessTracer(0)


class TestSimulatorIntegration:
    def test_tracer_absent_by_default(self):
        sim = Simulator(2, MODEL)
        assert sim.tracer is None
        # declarations are free no-ops
        sim.declare_read(0, "x", 1)
        sim.declare_write(0, "x", 1)

    def test_trace_flag_creates_tracer(self):
        sim = Simulator(3, MODEL, trace=True)
        assert isinstance(sim.tracer, AccessTracer)
        assert sim.tracer.nranks == 3

    def test_send_recv_advance_clocks(self):
        sim = Simulator(2, MODEL, trace=True)
        sim.declare_write(0, "x", 7)
        sim.exchange([(0, 1, 2.0)])
        sim.declare_read(1, "x", 7)
        a, b = sim.tracer.accesses("x", 7)
        assert happens_before(a, b)

    def test_barrier_advances_epoch(self):
        sim = Simulator(2, MODEL, trace=True)
        sim.barrier()
        sim.allreduce(np.zeros(2))
        sim.allgather([1, 2])
        assert sim.tracer.epoch == 3

    def test_declare_read_accepts_arrays(self):
        sim = Simulator(2, MODEL, trace=True)
        sim.declare_read(0, "x", np.array([3, 4, 5]))
        sim.declare_read(0, "x", 6)
        assert sim.tracer.num_accesses == 4

    def test_trace_does_not_change_timing(self):
        def run(trace):
            sim = Simulator(2, MODEL, trace=trace)
            sim.compute(0, 100.0)
            sim.exchange([(0, 1, 5.0)])
            sim.barrier()
            return sim.elapsed(), sim.stats().messages

        assert run(False) == run(True)
