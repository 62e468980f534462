"""The parallel drivers' two ways to compute: with and without a machine.

``parallel_triangular_solve`` runs the §5 regions on a transport and the
cached serial level schedules with ``transport="none"``; both sum every
row in one order, so ``x`` and the flop count are equal.
``parallel_matvec`` runs one region of the CSR row kernel, so ``y`` is
``A.matvec(x)`` bit for bit, with or without a transport.  Charges are
integer-valued, so accounting is exact on every path.
"""

import numpy as np
import pytest

from repro import ILUTParams, poisson2d, torso_like
from repro.decomp import decompose
from repro.ilu import parallel_ilut_partitioned, parallel_ilut_star
from repro.ilu.triangular import parallel_triangular_solve
from repro.machine import CRAY_T3D, Simulator
from repro.solvers import parallel_matvec
from repro.sparse import CSRMatrix
from repro.verify import find_races

from ..ilu import _trisolve
from . import _scalar


@pytest.fixture(scope="module")
def star_result():
    A = poisson2d(14)
    return A, parallel_ilut_star(
        A, ILUTParams(fill=6, threshold=1e-3, k=2), 4, seed=0
    )


class TestTriangularSolveParity:
    def test_accounting_is_equal(self, star_result):
        A, r = star_result
        b = np.arange(1, A.shape[0] + 1, dtype=np.float64)
        s0 = parallel_triangular_solve(r.factors, b)
        s1 = parallel_triangular_solve(r.factors, b, transport="none")
        assert s0.flops == s1.flops == r.factors.triangular_flops()
        assert s0.modeled_time > 0 and s1.modeled_time is None
        assert np.array_equal(s0.x, s1.x)

    def test_race_detection_matches(self, star_result):
        A, r = star_result
        b = np.ones(A.shape[0])
        t0 = parallel_triangular_solve(r.factors, b, trace=True)
        assert len(find_races(t0.trace)) == 0
        assert np.array_equal(t0.x, parallel_triangular_solve(r.factors, b).x)

    def test_nosim_path(self, star_result):
        A, r = star_result
        b = np.cos(np.arange(A.shape[0]))
        s = parallel_triangular_solve(r.factors, b, transport="none")
        assert s.modeled_time is None and s.comm is None
        assert np.array_equal(s.x, _trisolve.solve(r.factors, b))

    def test_trace_requires_simulate(self, star_result):
        A, r = star_result
        with pytest.raises(ValueError):
            parallel_triangular_solve(
                r.factors, np.ones(A.shape[0]), transport="none", trace=True
            )


class TestMatvecParity:
    def test_accounting_is_equal(self):
        A = poisson2d(16)
        d = decompose(A, 4, seed=0)
        x = np.linspace(0, 1, A.shape[0])
        m0 = parallel_matvec(A, d, x)
        m1 = parallel_matvec(A, d, x, transport="none")
        assert m0.flops == m1.flops == 2.0 * A.nnz
        assert m0.modeled_time > 0 and m1.modeled_time is None
        assert np.array_equal(m0.y, A.matvec(x))
        assert np.array_equal(m1.y, A.matvec(x))

    def test_race_free_under_trace(self):
        A = poisson2d(10)
        d = decompose(A, 4, seed=0)
        x = np.ones(A.shape[0])
        m1 = parallel_matvec(A, d, x, trace=True)
        assert len(find_races(m1.trace)) == 0
        assert np.array_equal(m1.y, A @ x)

    @pytest.mark.parametrize("transport", ["simulator", "threads", "processes", "none"])
    def test_small_rows_after_large_ones_keep_their_bits(self, transport):
        # rows of scale 1e8 first, then rows of scale 1: differencing a
        # running prefix sum leaves the small rows an error of eps * 1e9
        P = poisson2d(6)
        scale = np.where(np.arange(P.shape[0]) < 18, 1e8, 1.0)
        A = CSRMatrix(P.indptr, P.indices, P.data * np.repeat(scale, np.diff(P.indptr)), P.shape)
        d = decompose(A, 3, seed=0)
        x = np.cos(np.arange(A.shape[0], dtype=np.float64)) + 0.1
        want = _scalar.matvec(A, x)
        assert np.array_equal(parallel_matvec(A, d, x, transport=transport).y, want)
        prefix = _scalar.prefix_sums(A.data * x[A.indices], A.indptr)
        assert not np.array_equal(prefix, want)

    def test_equals_the_serial_matvec_on_torso(self):
        # torso rows mix scales, so a per-row np.dot (the order BLAS
        # picks) would round some rows differently from the kernel
        A = torso_like(600, seed=0)
        d = decompose(A, 4, seed=0)
        x = np.sin(np.arange(A.shape[0], dtype=np.float64))
        assert np.array_equal(parallel_matvec(A, d, x).y, A.matvec(x))


class TestPartitionedEngineParity:
    """The §7 engine runs on the shared row kernel: same heartbeats and
    tracer declarations as the MIS engine."""

    A = poisson2d(14)
    params = ILUTParams(fill=6, threshold=1e-3)

    def test_heartbeat_per_factored_row(self):
        class Beating(Simulator):
            beats = 0

            def heartbeat(self):
                self.beats += 1

        sim = Beating(4, CRAY_T3D)
        r = parallel_ilut_partitioned(self.A, self.params, 4, transport=sim)
        # every row is factored once; interface rows also pass through the
        # phase-1 reduction and the per-round updates
        assert sim.beats >= self.A.shape[0] + r.decomp.n_interface

    def test_traced_run_declares_row_accesses(self):
        r = parallel_ilut_partitioned(self.A, self.params, 4, trace=True)
        part = r.decomp.part
        iface = [int(i) for i in r.decomp.all_interface]
        assert all(r.trace.accesses("u-row", i) for i in iface)
        assert all(r.trace.accesses("reduced-row", i) for i in iface)
        # remote u-rows are read by the rank that eliminates against them
        assert any(
            a.rank != part[i] for i in iface for a in r.trace.accesses("u-row", i)
        )
        # The declarations expose one gap in the §7 cost model: a
        # domain's rows are factored (and charged) on the domain's rank,
        # but their u-rows are shipped from the owning rank, so a u-row
        # written off-owner is unordered with its remote readers.  Fixing
        # that moves modeled times; any *other* race is a regression.
        for race in find_races(r.trace):
            assert race.space == "u-row" and race.first.kind == "write"
            assert race.first.rank != part[race.index]
