"""Unit tests for the simulator utilization metric."""

import numpy as np
import pytest

from repro.ilu.params import ILUTParams
from repro.machine import CRAY_T3D, MachineModel, Simulator

MODEL = MachineModel("t", flop_time=1e-6, latency=1e-4, byte_time=0.0)


class TestUtilization:
    def test_pure_compute_is_fully_utilized(self):
        sim = Simulator(2, MODEL)
        sim.compute(0, 100)
        sim.compute(1, 100)
        assert np.allclose(sim.utilization(), 1.0)

    def test_idle_rank_zero_utilization(self):
        sim = Simulator(2, MODEL)
        sim.compute(0, 1000)
        u = sim.utilization()
        assert u[0] == pytest.approx(1.0)
        assert u[1] == 0.0

    def test_waiting_reduces_utilization(self):
        sim = Simulator(2, MODEL)
        sim.compute(0, 1000)
        sim.exchange([(0, 1, 0)])  # rank 1 waits the whole time
        sim.compute(1, 1000)
        u = sim.utilization()
        assert u[1] < 1.0

    def test_empty_simulator(self):
        sim = Simulator(3, MODEL)
        assert np.allclose(sim.utilization(), 1.0)

    def test_factorization_utilization_drops_with_p(self):
        """More ranks → more synchronisation overhead per rank."""
        from repro.ilu import parallel_ilut
        from repro.matrices import poisson2d

        A = poisson2d(16)
        u = {}
        for p in (2, 8):
            r = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-6), p, seed=0)
            # recompute utilization through comm stats proxy: busy share
            # = per-rank flop time / elapsed
            busy = np.asarray(r.comm.per_rank_flops) * CRAY_T3D.flop_time
            u[p] = busy.mean() / r.modeled_time
        assert u[8] < u[2]
