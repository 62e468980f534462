"""Unit tests for the §7 partition-based interface factorization."""

import numpy as np
import pytest

from repro.ilu import (
    parallel_ilut,
    parallel_ilut_partitioned,
    parallel_triangular_solve,
)
from repro.ilu.params import ILUTParams
from repro.matrices import poisson2d, random_diag_dominant


class TestCorrectness:
    def test_no_dropping_exact(self, small_diagdom):
        n = small_diagdom.shape[0]
        r = parallel_ilut_partitioned(small_diagdom, ILUTParams(fill=n, threshold=0.0), 4, seed=0, transport="none")
        R = r.factors.residual_matrix(small_diagdom)
        assert R.frobenius_norm() < 1e-9 * small_diagdom.frobenius_norm()

    def test_factors_triangular(self):
        r = parallel_ilut_partitioned(poisson2d(12), ILUTParams(fill=5, threshold=1e-3), 4, seed=0, transport="none")
        L, U = r.factors.L, r.factors.U
        for i in range(L.shape[0]):
            lc, _ = L.row(i)
            uc, _ = U.row(i)
            assert lc.size == 0 or lc.max() < i
            assert uc.size > 0 and uc[0] == i

    def test_level_structure_valid(self):
        r = parallel_ilut_partitioned(poisson2d(10), ILUTParams(fill=5, threshold=1e-3), 4, seed=0, transport="none")
        r.factors.levels.validate(100)

    def test_trisolve_matches_sequential(self, rng):
        A = poisson2d(12)
        r = parallel_ilut_partitioned(A, ILUTParams(fill=5, threshold=1e-3), 4, seed=0, transport="none")
        b = rng.standard_normal(144)
        out = parallel_triangular_solve(r.factors, b, transport="none")
        assert np.allclose(out.x, r.factors.solve(b))

    def test_preconditioner_quality(self, rng):
        A = poisson2d(16)
        b = rng.standard_normal(256)
        r = parallel_ilut_partitioned(A, ILUTParams(fill=10, threshold=1e-4), 8, seed=0, transport="none")
        y = r.factors.solve(b)
        assert np.linalg.norm(b - A @ y) < 0.5 * np.linalg.norm(b)

    def test_unexpected_kwargs_rejected(self, small_poisson):
        with pytest.raises(TypeError):
            parallel_ilut_partitioned(small_poisson, ILUTParams(fill=5, threshold=1e-3), 2, bogus=1)


class TestFewerLevels:
    def test_fewer_sync_levels_than_mis(self):
        """§7's point: one level per recursion round, not per MIS."""
        A = poisson2d(16)
        r_mis = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-6), 8, seed=0, transport="none")
        r_par = parallel_ilut_partitioned(A, ILUTParams(fill=10, threshold=1e-6), 8, seed=0, transport="none")
        assert r_par.num_levels < r_mis.num_levels

    def test_star_cap_supported(self):
        A = poisson2d(12)
        r = parallel_ilut_partitioned(
            A, ILUTParams(fill=10, threshold=1e-6), 4, reduced_cap=20, seed=0, transport="none"
        )
        r.factors.levels.validate(144)

    def test_sequential_tail_cutoff(self):
        # tiny interface: goes straight to the sequential tail
        A = random_diag_dominant(30, 3, seed=4)
        r = parallel_ilut_partitioned(A, ILUTParams(fill=30, threshold=0.0), 2, seed=0, transport="none")
        assert r.num_levels >= 0  # terminates
        r.factors.levels.validate(30)
