"""Unit tests for the level-scheduled fast applier."""

import numpy as np
import pytest

from repro.ilu import ilut, parallel_ilut
from repro.ilu.apply import LevelScheduledApplier, triangular_levels
from repro.ilu.params import ILUTParams
from repro.matrices import poisson2d, random_diag_dominant
from repro.sparse import CSRMatrix


class TestTriangularLevels:
    def test_diagonal_matrix_all_level_zero(self):
        M = CSRMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        assert triangular_levels(M, lower=True).tolist() == [0, 0, 0]

    def test_chain_levels(self):
        # bidiagonal lower: row i depends on i-1 → level i
        n = 5
        D = np.eye(n) + np.diag(np.ones(n - 1), -1)
        M = CSRMatrix.from_dense(D)
        assert triangular_levels(M, lower=True).tolist() == [0, 1, 2, 3, 4]

    def test_upper_chain_levels(self):
        n = 4
        D = np.eye(n) + np.diag(np.ones(n - 1), 1)
        M = CSRMatrix.from_dense(D)
        assert triangular_levels(M, lower=False).tolist() == [3, 2, 1, 0]

    def test_block_structure_levels(self):
        # two independent 2-chains → levels [0,1,0,1]
        D = np.eye(4)
        D[1, 0] = 1.0
        D[3, 2] = 1.0
        M = CSRMatrix.from_dense(D)
        assert triangular_levels(M, lower=True).tolist() == [0, 1, 0, 1]


class TestLevelScheduledApplier:
    def test_matches_reference_solve_sequential(self, rng):
        A = random_diag_dominant(50, 5, seed=2)
        f = ilut(A, ILUTParams(fill=10, threshold=1e-4))
        app = LevelScheduledApplier(f)
        for _ in range(3):
            b = rng.standard_normal(50)
            assert np.allclose(app.apply(b), f.solve(b), rtol=1e-12, atol=1e-14)

    def test_matches_reference_solve_parallel_factors(self, rng):
        A = poisson2d(14)
        r = parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3), 4, seed=0, transport="none")
        app = LevelScheduledApplier(r.factors)
        b = rng.standard_normal(196)
        assert np.allclose(app.apply(b), r.factors.solve(b), rtol=1e-12)

    def test_parallel_ordering_has_fewer_levels(self):
        """MIS ordering shortens dependency chains — the paper's point."""
        A = poisson2d(16)
        seq = LevelScheduledApplier(ilut(A, ILUTParams(fill=5, threshold=1e-3)))
        par = LevelScheduledApplier(
            parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3), 8, seed=0, transport="none").factors
        )
        assert par.forward_levels < seq.forward_levels

    def test_shape_check(self):
        A = poisson2d(6)
        app = LevelScheduledApplier(ilut(A, ILUTParams(fill=5, threshold=1e-3)))
        with pytest.raises(ValueError):
            app.apply(np.ones(7))

    def test_callable(self, rng):
        A = poisson2d(6)
        f = ilut(A, ILUTParams(fill=5, threshold=1e-3))
        app = LevelScheduledApplier(f)
        b = rng.standard_normal(36)
        assert np.array_equal(app(b), app.apply(b))

    def test_zero_pivot_rejected(self):
        from repro.ilu import ILUFactors

        U = CSRMatrix.from_coo([0, 1], [0, 1], [1.0, 0.0], (2, 2))
        f = ILUFactors(L=CSRMatrix.zeros(2), U=U, perm=np.arange(2))
        with pytest.raises(ZeroDivisionError):
            LevelScheduledApplier(f)

    def test_missing_diagonal_rejected(self):
        from repro.ilu import ILUFactors

        U = CSRMatrix.from_coo([0], [0], [1.0], (2, 2))
        f = ILUFactors(L=CSRMatrix.zeros(2), U=U, perm=np.arange(2))
        with pytest.raises(ValueError):
            LevelScheduledApplier(f)


class TestFastPreconditioner:
    def test_fast_and_slow_agree_in_gmres(self, rng):
        from repro.solvers import ILUPreconditioner, gmres

        A = poisson2d(12)
        b = rng.standard_normal(144)
        f = ilut(A, ILUTParams(fill=10, threshold=1e-4))
        r_fast = gmres(A, b, restart=20, M=ILUPreconditioner(f, fast=True))
        r_slow = gmres(A, b, restart=20, M=ILUPreconditioner(f, fast=False))
        assert r_fast.converged and r_slow.converged
        assert r_fast.num_matvec == r_slow.num_matvec
        assert np.allclose(r_fast.x, r_slow.x, atol=1e-8)

    def test_fast_is_faster_for_parallel_factors(self, rng):
        import time

        A = poisson2d(24)
        r = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-4), 8, seed=0, transport="none")
        b = rng.standard_normal(A.shape[0])
        app = LevelScheduledApplier(r.factors)
        app.apply(b)  # warm
        t0 = time.perf_counter()
        for _ in range(5):
            app.apply(b)
        fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(5):
            r.factors.solve(b)
        slow = time.perf_counter() - t0
        assert fast < slow
