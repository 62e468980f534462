"""Race-detector tests: the seeded violation is flagged, the shipped
parallel drivers are certified race-free on a G0-style workload."""

import numpy as np
import pytest

from repro.graph import adjacency_from_matrix
from repro.graph.distributed_mis import distributed_two_step_luby_mis
from repro.ilu import parallel_ilut, parallel_ilut_star
from repro.ilu.params import ILUTParams
from repro.ilu.triangular import parallel_triangular_solve
from repro.machine import CRAY_T3D, MachineModel, Simulator
from repro.matrices import poisson2d
from repro.solvers import parallel_matvec
from repro.verify import find_races, racy_toy_driver

MODEL = MachineModel("test", flop_time=1e-6, latency=1e-4, byte_time=1e-8)


class TestAdversarialDriver:
    def test_racy_toy_driver_reports_exactly_the_conflict(self):
        sim = Simulator(2, MODEL, trace=True)
        racy_toy_driver(sim)
        races = find_races(sim.tracer)
        assert len(races) == 1
        r = races[0]
        assert (r.space, r.index) == ("interface-row", 7)
        assert {r.first.rank, r.second.rank} == {0, 1}
        assert r.first.kind == "write" and r.second.kind == "write"
        assert "interface-row" in r.describe()

    def test_fixed_variant_is_race_free(self):
        sim = Simulator(2, MODEL, trace=True)
        racy_toy_driver(sim, fixed=True)
        assert find_races(sim.tracer) == []

    def test_driver_requires_tracing(self):
        with pytest.raises(ValueError):
            racy_toy_driver(Simulator(2, MODEL))
        with pytest.raises(ValueError):
            racy_toy_driver(Simulator(1, MODEL, trace=True))

    def test_unsynchronised_cross_rank_u_row_read_is_flagged(self):
        # the engine-shaped bug: rank 1 consumes rank 0's freshly
        # factored u-row without the level's send/recv edge
        sim = Simulator(2, MODEL, trace=True)
        tr = sim.tracer
        tr.write(0, "u-row", 11)
        tr.read(1, "u-row", 11)  # no message, no barrier
        races = find_races(tr)
        assert len(races) == 1
        assert (races[0].space, races[0].index) == ("u-row", 11)

    def test_exchange_edge_removes_the_race(self):
        sim = Simulator(2, MODEL, trace=True)
        sim.declare_write(0, "u-row", 11)
        sim.send(0, 1, None, 4.0, tag=("urow", 0))
        sim.recv(1, 0, tag=("urow", 0))
        sim.declare_read(1, "u-row", 11)
        assert find_races(sim.tracer) == []

    def test_find_races_handles_missing_tracer(self):
        assert find_races(None) == []

    def test_one_report_per_object_and_rank_pair(self):
        sim = Simulator(2, MODEL, trace=True)
        tr = sim.tracer
        for _ in range(3):
            tr.write(0, "row", 1)
            tr.on_send(0)  # break dedup without creating edges to rank 1
            tr.write(1, "row", 1)
            tr.on_send(1)
        assert len(find_races(tr)) == 1


class TestShippedDriversRaceFree:
    """Acceptance: zero races across every parallel driver on G0."""

    A = poisson2d(12)
    P = 4

    def test_parallel_ilut(self):
        res = parallel_ilut(self.A, ILUTParams(fill=5, threshold=1e-4), self.P, trace=True)
        assert res.trace is not None
        assert res.trace.num_accesses > 0
        assert find_races(res.trace) == []

    def test_parallel_ilut_star(self):
        res = parallel_ilut_star(self.A, ILUTParams(fill=5, threshold=1e-4, k=2), self.P, trace=True)
        assert find_races(res.trace) == []

    def test_distributed_mis(self):
        res = parallel_ilut(self.A, ILUTParams(fill=5, threshold=1e-4), self.P)
        graph = adjacency_from_matrix(self.A, symmetric=True)
        sim = Simulator(self.P, CRAY_T3D, trace=True)
        distributed_two_step_luby_mis(graph, res.decomp.part, sim, seed=0)
        assert sim.tracer.num_accesses > 0
        assert find_races(sim.tracer) == []

    def test_triangular_solve(self):
        res = parallel_ilut(self.A, ILUTParams(fill=5, threshold=1e-4), self.P, trace=True)
        b = np.ones(self.A.shape[0])
        ts = parallel_triangular_solve(res.factors, b, trace=True)
        assert ts.trace is not None
        assert find_races(ts.trace) == []

    def test_distributed_matvec(self):
        res = parallel_ilut(self.A, ILUTParams(fill=5, threshold=1e-4), self.P)
        x = np.linspace(1.0, 2.0, self.A.shape[0])
        mv = parallel_matvec(self.A, res.decomp, x, trace=True)
        assert mv.trace is not None
        assert find_races(mv.trace) == []

    def test_trace_requires_simulation(self):
        with pytest.raises(ValueError):
            parallel_ilut(self.A, ILUTParams(fill=5, threshold=1e-4), 2, transport="none", trace=True)

    def test_trace_does_not_perturb_results(self):
        plain = parallel_ilut(self.A, ILUTParams(fill=5, threshold=1e-4), self.P)
        traced = parallel_ilut(self.A, ILUTParams(fill=5, threshold=1e-4), self.P, trace=True)
        assert plain.modeled_time == traced.modeled_time
        assert np.array_equal(plain.factors.U.data, traced.factors.U.data)
        assert np.array_equal(plain.factors.perm, traced.factors.perm)
        assert plain.trace is None
