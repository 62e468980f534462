"""Qualitative reproduction of the paper's headline claims at test scale.

These are the *shape* assertions the benchmark harness measures at full
scale, verified here on small problems so they run in CI time.
"""

import numpy as np
import pytest

from repro import (
    CRAY_T3D,
    WORKSTATION_CLUSTER,
    decompose,
    gmres,
    parallel_ilut,
    parallel_ilut_star,
    parallel_matvec,
    parallel_triangular_solve,
    poisson2d,
    torso_like,
)
from repro.ilu.params import ILUTParams
from repro.solvers import ILUPreconditioner


@pytest.fixture(scope="module")
def workload():
    return poisson2d(24)  # 576 unknowns


class TestFactorizationClaims:
    def test_time_grows_with_m_and_inverse_t(self, workload):
        """Table 1: factorization cost rises as m↑ / t↓."""
        t_small = parallel_ilut(workload, ILUTParams(fill=5, threshold=1e-2), 4, seed=0).modeled_time
        t_large = parallel_ilut(workload, ILUTParams(fill=10, threshold=1e-6), 4, seed=0).modeled_time
        assert t_large > t_small

    def test_ilutstar_no_slower_and_faster_at_small_t(self, workload):
        """Table 1: ILUT ≥ ILUT* everywhere; gap at t=1e-6."""
        for m, t in ((5, 1e-2), (10, 1e-6)):
            ti = parallel_ilut(workload, ILUTParams(fill=m, threshold=t), 8, seed=0).modeled_time
            ts = parallel_ilut_star(workload, ILUTParams(fill=m, threshold=t, k=2), 8, seed=0).modeled_time
            assert ts <= ti * 1.02, (m, t)
        ti6 = parallel_ilut(workload, ILUTParams(fill=10, threshold=1e-6), 8, seed=0).modeled_time
        ts6 = parallel_ilut_star(workload, ILUTParams(fill=10, threshold=1e-6, k=2), 8, seed=0).modeled_time
        assert ts6 < ti6

    def test_levels_grow_as_t_shrinks_for_ilut(self, workload):
        """§6: the number of independent sets increases as fill increases."""
        q_loose = parallel_ilut(workload, ILUTParams(fill=10, threshold=1e-2), 8, seed=0, transport="none").num_levels
        q_tight = parallel_ilut(workload, ILUTParams(fill=10, threshold=1e-6), 8, seed=0, transport="none").num_levels
        assert q_tight >= q_loose

    def test_ilutstar_fewer_levels_at_small_t(self, workload):
        """§6 (TORSO, p=128): ILUT needs 389 sets, ILUT* only ~112."""
        q_i = parallel_ilut(workload, ILUTParams(fill=10, threshold=1e-6), 8, seed=0, transport="none").num_levels
        q_s = parallel_ilut_star(workload, ILUTParams(fill=10, threshold=1e-6, k=2), 8, seed=0, transport="none").num_levels
        assert q_s <= q_i

    def test_interface_work_shrinks_wall_time_with_more_ranks(self):
        """Speedup exists: more PEs → less modelled time (moderate p).

        Needs a problem large enough that interior work dominates the
        interface overhead (the paper's matrices are 50k-200k rows)."""
        A = poisson2d(48)  # 2304 unknowns
        t2 = parallel_ilut(A, ILUTParams(fill=5, threshold=1e-2), 2, seed=0).modeled_time
        t8 = parallel_ilut(A, ILUTParams(fill=5, threshold=1e-2), 8, seed=0).modeled_time
        assert t8 < t2


class TestTriangularSolveClaims:
    def test_trisolve_time_grows_with_fill(self, workload, rng):
        b = rng.standard_normal(workload.shape[0])
        r_small = parallel_ilut(workload, ILUTParams(fill=5, threshold=1e-2), 4, seed=0, transport="none")
        r_big = parallel_ilut(workload, ILUTParams(fill=10, threshold=1e-6), 4, seed=0, transport="none")
        t_small = parallel_triangular_solve(r_small.factors, b).modeled_time
        t_big = parallel_triangular_solve(r_big.factors, b).modeled_time
        assert t_big > t_small

    def test_trisolve_within_small_factor_of_matvec(self, workload, rng):
        """§5: fwd+bwd costs ~1.3x a matvec for ILUT* (we accept <5x at
        this tiny scale where latency dominates)."""
        d = decompose(workload, 4, seed=0)
        r = parallel_ilut_star(workload, ILUTParams(fill=5, threshold=1e-2, k=2), 4, decomp=d, seed=0, transport="none")
        x = rng.standard_normal(workload.shape[0])
        t_mv = parallel_matvec(workload, d, x).modeled_time
        t_ts = parallel_triangular_solve(r.factors, x).modeled_time
        assert t_ts < 8 * t_mv

    def test_star_trisolve_no_slower(self, workload, rng):
        """Table 2: ILUT* triangular solves are at most as costly."""
        b = rng.standard_normal(workload.shape[0])
        r_i = parallel_ilut(workload, ILUTParams(fill=10, threshold=1e-6), 8, seed=0, transport="none")
        r_s = parallel_ilut_star(workload, ILUTParams(fill=10, threshold=1e-6, k=2), 8, seed=0, transport="none")
        t_i = parallel_triangular_solve(r_i.factors, b).modeled_time
        t_s = parallel_triangular_solve(r_s.factors, b).modeled_time
        assert t_s <= t_i * 1.1


class TestPreconditionerClaims:
    def test_ilut_and_ilutstar_comparable_quality(self, workload):
        """Table 3: NMV counts are comparable (mixed winners)."""
        b = workload @ np.ones(workload.shape[0])
        nmv = {}
        for name, fac in (
            ("ilut", parallel_ilut(workload, ILUTParams(fill=10, threshold=1e-4), 8, seed=0, transport="none")),
            ("star", parallel_ilut_star(workload, ILUTParams(fill=10, threshold=1e-4, k=2), 8, seed=0, transport="none")),
        ):
            res = gmres(
                workload, b, restart=20, tol=1e-8,
                M=ILUPreconditioner(fac.factors), maxiter=5000,
            )
            assert res.converged
            nmv[name] = res.num_matvec
        ratio = nmv["star"] / nmv["ilut"]
        assert 0.3 < ratio < 3.0

    def test_quality_improves_with_fill_families(self, workload):
        """Table 3: denser factorizations converge in fewer NMV."""
        b = workload @ np.ones(workload.shape[0])
        loose = parallel_ilut(workload, ILUTParams(fill=5, threshold=1e-2), 4, seed=0, transport="none")
        tight = parallel_ilut(workload, ILUTParams(fill=10, threshold=1e-6), 4, seed=0, transport="none")
        n_loose = gmres(workload, b, restart=20, M=ILUPreconditioner(loose.factors), maxiter=5000).num_matvec
        n_tight = gmres(workload, b, restart=20, M=ILUPreconditioner(tight.factors), maxiter=5000).num_matvec
        assert n_tight <= n_loose


class TestClusterClaim:
    def test_ilutstar_gap_widens_on_slow_network(self, workload):
        """§7: ILUT* is 'critical' on workstation clusters — the absolute
        time ILUT* saves (fewer levels → fewer messages and barriers)
        explodes when per-message costs grow by orders of magnitude."""
        saved = {}
        for model in (CRAY_T3D, WORKSTATION_CLUSTER):
            ti = parallel_ilut(workload, ILUTParams(fill=10, threshold=1e-6), 8, seed=0, model=model).modeled_time
            ts = parallel_ilut_star(workload, ILUTParams(fill=10, threshold=1e-6, k=2), 8, seed=0, model=model).modeled_time
            saved[model.name] = ti - ts
        assert saved["workstation-cluster"] > 10 * saved["cray-t3d"]


class TestTorsoHarderThanG0:
    def test_unstructured_needs_more_levels(self):
        """TORSO-class (irregular) interfaces need at least as many levels
        as an equal-size structured grid."""
        G = poisson2d(17)  # 289
        T = torso_like(289, seed=0)
        qg = parallel_ilut(G, ILUTParams(fill=10, threshold=1e-4), 8, seed=0, transport="none").num_levels
        qt = parallel_ilut(T, ILUTParams(fill=10, threshold=1e-4), 8, seed=0, transport="none").num_levels
        assert qt >= qg
