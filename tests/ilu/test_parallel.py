"""Integration-grade unit tests for the parallel ILUT/ILUT* factorization."""

import numpy as np
import pytest

from repro.decomp import decompose
from repro.ilu import ilut, parallel_ilut, parallel_ilut_star
from repro.ilu.params import ILUTParams
from repro.matrices import (
    convection_diffusion2d,
    poisson2d,
    random_diag_dominant,
    torso_like,
)


class TestCorrectness:
    def test_p1_identical_to_sequential(self):
        # one rank: every row is interior, so the engine's phase 1 *is*
        # the serial ILUT — same bits, same operation count
        matrices = {
            "poisson": poisson2d(12),
            "torso": torso_like(140, seed=1),
            "unsymmetric": random_diag_dominant(60, 5, seed=4, symmetric_pattern=False),
        }
        for name, A in matrices.items():
            for m, t in [(5, 1e-2), (10, 1e-4), (3, 0.0), (0, 1e-2)]:
                for backend in ("reference", "vectorized"):
                    case = (name, m, t, backend)
                    params = ILUTParams(fill=m, threshold=t)
                    r = parallel_ilut(A, params, 1, transport="none", backend=backend)
                    f = ilut(A, params, backend=backend)
                    for got, want in ((r.factors.L, f.L), (r.factors.U, f.U)):
                        assert got.indptr.tobytes() == want.indptr.tobytes(), case
                        assert got.indices.tobytes() == want.indices.tobytes(), case
                        assert got.data.tobytes() == want.data.tobytes(), case
                    assert r.factors.perm.tobytes() == f.perm.tobytes(), case
                    assert r.flops == f.stats["flops"], case
                    assert r.num_levels == 0, case

    def test_no_dropping_exact_any_p(self, small_diagdom):
        n = small_diagdom.shape[0]
        for p in (2, 4, 7):
            r = parallel_ilut(small_diagdom, ILUTParams(fill=n, threshold=0.0), p, seed=1, transport="none")
            R = r.factors.residual_matrix(small_diagdom)
            assert R.frobenius_norm() < 1e-9 * small_diagdom.frobenius_norm(), p

    def test_factors_triangular(self):
        for p in (2, 4, 8):
            r = parallel_ilut(poisson2d(12), ILUTParams(fill=5, threshold=1e-3), p, seed=0, transport="none")
            L, U = r.factors.L, r.factors.U
            for i in range(L.shape[0]):
                lc, _ = L.row(i)
                uc, _ = U.row(i)
                assert lc.size == 0 or lc.max() < i
                assert uc.size > 0 and uc[0] == i  # diagonal stored

    def test_simulation_does_not_change_numerics(self, medium_poisson):
        r_sim = parallel_ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-4), 4, seed=2, transport="simulator")
        r_raw = parallel_ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-4), 4, seed=2, transport="none")
        assert r_sim.factors.L.allclose(r_raw.factors.L, rtol=0, atol=0)
        assert r_sim.factors.U.allclose(r_raw.factors.U, rtol=0, atol=0)
        assert np.array_equal(r_sim.factors.perm, r_raw.factors.perm)

    def test_deterministic_given_seed(self, medium_poisson):
        r1 = parallel_ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-3), 4, seed=3, transport="none")
        r2 = parallel_ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-3), 4, seed=3, transport="none")
        assert r1.factors.L.allclose(r2.factors.L, rtol=0, atol=0)
        assert np.array_equal(r1.factors.perm, r2.factors.perm)

    def test_perm_covers_all_rows(self):
        r = parallel_ilut(poisson2d(10), ILUTParams(fill=5, threshold=1e-2), 4, transport="none")
        assert sorted(r.factors.perm.tolist()) == list(range(100))

    def test_interior_before_interface(self):
        A = poisson2d(10)
        d = decompose(A, 4, seed=0)
        r = parallel_ilut(A, ILUTParams(fill=5, threshold=1e-2), 4, decomp=d, transport="none")
        n_interior = d.n_interior
        # first n_interior permuted positions are interior rows
        assert not np.any(d.is_interface[r.factors.perm[:n_interior]])
        assert np.all(d.is_interface[r.factors.perm[n_interior:]])

    def test_levels_are_independent_sets(self):
        """Rows factored in one level never reference one another in U."""
        r = parallel_ilut(poisson2d(12), ILUTParams(fill=10, threshold=1e-4), 4, transport="none", seed=0)
        U = r.factors.U
        for lvl in r.factors.levels.interface_levels:
            inlvl = set(lvl.tolist())
            for p in lvl:
                cols, _ = U.row(int(p))
                assert not (set(cols[1:].tolist()) & inlvl)

    def test_nonsymmetric_values(self, small_nonsym):
        r = parallel_ilut(small_nonsym, ILUTParams(fill=5, threshold=1e-3), 4, transport="none")
        b = np.ones(small_nonsym.shape[0])
        y = r.factors.solve(small_nonsym @ b)
        assert np.linalg.norm(y - b) / np.linalg.norm(b) < 1.0

    def test_unstructured_mesh(self):
        A = torso_like(300, seed=0)
        r = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-3), 4, transport="none", seed=0)
        assert r.factors.levels is not None
        r.factors.levels.validate(A.shape[0])


class TestILUTStar:
    def test_reduced_cap_cuts_levels_at_small_t(self):
        A = poisson2d(16)
        r_ilut = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-6), 8, seed=0, transport="none")
        r_star = parallel_ilut_star(A, ILUTParams(fill=10, threshold=1e-6, k=2), 8, seed=0, transport="none")
        assert r_star.num_levels <= r_ilut.num_levels

    def test_star_equals_ilut_for_huge_k(self, medium_poisson):
        # cap so large it never binds → identical factors
        r_ilut = parallel_ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-3), 4, seed=1, transport="none")
        r_star = parallel_ilut_star(
            medium_poisson, ILUTParams(fill=5, threshold=1e-3, k=10_000), 4, seed=1, transport="none"
        )
        assert r_star.factors.L.allclose(r_ilut.factors.L, rtol=0, atol=0)
        assert r_star.factors.U.allclose(r_ilut.factors.U, rtol=0, atol=0)

    def test_k_must_be_positive(self, small_poisson):
        with pytest.raises(ValueError):
            parallel_ilut_star(small_poisson, ILUTParams(fill=5, threshold=1e-3, k=0), 2)

    def test_star_quality_comparable(self, medium_poisson, rng):
        A = medium_poisson
        b = rng.standard_normal(A.shape[0])
        y_i = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-4), 4, seed=0, transport="none").factors.solve(b)
        y_s = parallel_ilut_star(A, ILUTParams(fill=10, threshold=1e-4, k=2), 4, seed=0, transport="none").factors.solve(b)
        r_i = np.linalg.norm(b - A @ y_i)
        r_s = np.linalg.norm(b - A @ y_s)
        assert r_s < 3 * r_i + 1e-12  # paper: comparable quality for k=2


class TestSimulationAccounting:
    def test_modeled_time_positive(self, medium_poisson):
        r = parallel_ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-3), 4, seed=0)
        assert r.modeled_time > 0
        assert r.comm.total_flops > 0

    def test_no_pending_messages(self, medium_poisson):
        from repro.machine import CRAY_T3D, Simulator

        # run via public API then verify through comm stats consistency
        r = parallel_ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-3), 4, seed=0)
        assert r.comm.messages >= 0  # smoke: stats exist

    def test_flops_independent_of_model(self, medium_poisson):
        from repro.machine import IDEAL, WORKSTATION_CLUSTER

        r1 = parallel_ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-3), 4, seed=0, model=IDEAL)
        r2 = parallel_ilut(
            medium_poisson, ILUTParams(fill=5, threshold=1e-3), 4, seed=0, model=WORKSTATION_CLUSTER
        )
        assert r1.flops == r2.flops
        assert r1.modeled_time < r2.modeled_time  # comm-free is faster

    def test_star_no_slower_than_ilut_at_small_t(self):
        A = poisson2d(16)
        t_ilut = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-6), 8, seed=0).modeled_time
        t_star = parallel_ilut_star(A, ILUTParams(fill=10, threshold=1e-6, k=2), 8, seed=0).modeled_time
        assert t_star <= t_ilut * 1.05

    def test_decomp_rank_mismatch_rejected(self, small_poisson):
        d = decompose(small_poisson, 2, seed=0)
        with pytest.raises(ValueError):
            parallel_ilut(small_poisson, ILUTParams(fill=5, threshold=1e-3), 4, decomp=d)


class TestEdgeCases:
    def test_p_equals_n_extreme(self):
        A = poisson2d(3)  # 9 rows on 9 ranks: everything is interface
        r = parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3), 9, transport="none", seed=0)
        assert r.factors.levels.validate(9) is None
        assert r.num_levels >= 1

    def test_all_interface_no_dropping_exact(self):
        A = random_diag_dominant(24, 4, seed=3)
        r = parallel_ilut(A, ILUTParams(fill=24, threshold=0.0), 12, transport="none", seed=0)
        assert (
            r.factors.residual_matrix(A).frobenius_norm()
            < 1e-9 * A.frobenius_norm()
        )

    def test_invalid_m_t(self, small_poisson):
        with pytest.raises(ValueError):
            parallel_ilut(small_poisson, ILUTParams(fill=-1, threshold=0.1), 2)
        with pytest.raises(ValueError):
            parallel_ilut(small_poisson, ILUTParams(fill=5, threshold=-0.1), 2)

    def test_block_and_random_methods(self, medium_poisson):
        for method in ("block", "random"):
            r = parallel_ilut(
                medium_poisson, ILUTParams(fill=5, threshold=1e-2), 4, method=method, transport="none"
            )
            r.factors.levels.validate(256)
