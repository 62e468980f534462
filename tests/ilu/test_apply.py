"""Unit tests for the level-scheduled serial apply (``ILUFactors.solve``
on the cached schedules of ``repro.kernels.triangular``), against the
row-by-row oracle ``_trisolve``."""

import numpy as np
import pytest

from repro.ilu import ilut, parallel_ilut
from repro.ilu.params import ILUTParams
from repro.kernels import cached_schedules, triangular_levels
from repro.matrices import poisson2d, random_diag_dominant
from repro.sparse import CSRMatrix, lower_solve_unit, upper_solve

from . import _trisolve


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
        for _ in range(3):
            b = rng.standard_normal(50)
            assert np.array_equal(f.solve(b), _trisolve.solve(f, b))

    def test_matches_reference_solve_parallel_factors(self, rng):
        A = poisson2d(14)
        r = parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3), 4, seed=0, transport="none")
        b = rng.standard_normal(196)
        assert np.array_equal(r.factors.solve(b), _trisolve.solve(r.factors, b))

    def test_parallel_ordering_has_fewer_levels(self):
        """MIS ordering shortens dependency chains — the paper's point."""
        A = poisson2d(16)
        seq, _ = cached_schedules(ilut(A, ILUTParams(fill=5, threshold=1e-3)))
        par, _ = cached_schedules(
            parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3), 8, seed=0, transport="none").factors
        )
        assert par.num_levels < seq.num_levels

    def test_shape_check(self):
        A = poisson2d(6)
        f = ilut(A, ILUTParams(fill=5, threshold=1e-3))
        with pytest.raises(ValueError):
            f.solve(np.ones(7))

    def test_callable(self, rng):
        from repro.solvers import ILUPreconditioner

        A = poisson2d(6)
        f = ilut(A, ILUTParams(fill=5, threshold=1e-3))
        b = rng.standard_normal(36)
        assert np.array_equal(ILUPreconditioner(f)(b), f.solve(b))

    def test_zero_pivot_rejected(self):
        from repro.ilu import ILUFactors

        U = CSRMatrix.from_coo([0, 1], [0, 1], [1.0, 0.0], (2, 2))
        f = ILUFactors(L=CSRMatrix.zeros(2), U=U, perm=np.arange(2))
        with pytest.raises(ZeroDivisionError):
            cached_schedules(f)

    def test_missing_diagonal_rejected(self):
        from repro.ilu import ILUFactors

        U = CSRMatrix.from_coo([0], [0], [1.0], (2, 2))
        f = ILUFactors(L=CSRMatrix.zeros(2), U=U, perm=np.arange(2))
        with pytest.raises(ValueError):
            cached_schedules(f)


class TestFastPreconditioner:
    def test_fast_and_slow_agree_in_gmres(self, rng):
        from types import SimpleNamespace

        from repro.solvers import ILUPreconditioner, gmres

        A = poisson2d(12)
        b = rng.standard_normal(144)
        f = ilut(A, ILUTParams(fill=10, threshold=1e-4))
        r_fast = gmres(A, b, restart=20, M=ILUPreconditioner(f))
        oracle = SimpleNamespace(apply=lambda r: _trisolve.solve(f, r))
        r_slow = gmres(A, b, restart=20, M=oracle)
        assert r_fast.converged and r_slow.converged
        assert r_fast.num_matvec == r_slow.num_matvec
        assert r_fast.residual_history == r_slow.residual_history
        assert np.array_equal(r_fast.x, r_slow.x)

    def test_fast_is_faster_for_parallel_factors(self, rng):
        import time

        A = poisson2d(24)
        r = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-4), 8, seed=0, transport="none")
        b = rng.standard_normal(A.shape[0])
        r.factors.solve(b)  # warm: builds the schedules
        t0 = time.perf_counter()
        for _ in range(5):
            r.factors.solve(b)
        fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        L, U, perm = r.factors.L, r.factors.U, r.factors.perm
        for _ in range(5):
            upper_solve(U, lower_solve_unit(L, b[perm]))  # one np.dot per row
        slow = time.perf_counter() - t0
        assert fast < slow
