"""Unit tests for the sequential ILUT(m, t) kernel."""

import numpy as np
import pytest

from repro.ilu import ilut
from repro.ilu.params import ILUTParams
from repro.matrices import (
    convection_diffusion2d,
    poisson2d,
    random_diag_dominant,
)
from repro.resilience import PivotPolicy
from repro.sparse import CSRMatrix


class TestExactLimit:
    def test_no_dropping_reproduces_lu(self, small_diagdom):
        """ILUT(n, 0) on a diagonally dominant matrix is the exact LU."""
        n = small_diagdom.shape[0]
        f = ilut(small_diagdom, ILUTParams(fill=n, threshold=0.0))
        R = f.residual_matrix(small_diagdom)
        assert R.frobenius_norm() < 1e-10 * small_diagdom.frobenius_norm()

    def test_no_dropping_matches_scipy_splu_solve(self, small_diagdom, rng):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        A = small_diagdom
        n = A.shape[0]
        f = ilut(A, ILUTParams(fill=n, threshold=0.0))
        b = rng.standard_normal(n)
        x_ref = spla.spsolve(
            sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape).tocsc(), b
        )
        x = f.solve(b)
        assert np.allclose(x, x_ref, rtol=1e-8, atol=1e-10)

    def test_already_triangular_matrix(self):
        U = CSRMatrix.from_dense(np.triu(np.full((5, 5), 1.0)) + np.eye(5))
        f = ilut(U, ILUTParams(fill=5, threshold=0.0))
        assert f.L.nnz == 0
        assert f.residual_matrix(U).frobenius_norm() < 1e-12

    def test_diagonal_matrix(self):
        D = CSRMatrix.from_dense(np.diag([2.0, 3.0, 4.0]))
        f = ilut(D, ILUTParams(fill=3, threshold=0.0))
        assert f.L.nnz == 0 and f.U.nnz == 3
        assert np.allclose(f.U.diagonal(), [2.0, 3.0, 4.0])


class TestDroppingBehaviour:
    def test_row_nnz_bounds(self, medium_poisson):
        m = 3
        f = ilut(medium_poisson, ILUTParams(fill=m, threshold=1e-4))
        assert f.L.row_nnz().max() <= m
        assert f.U.row_nnz().max() <= m + 1  # + diagonal

    def test_larger_m_more_fill(self, medium_poisson):
        f2 = ilut(medium_poisson, ILUTParams(fill=2, threshold=1e-6))
        f8 = ilut(medium_poisson, ILUTParams(fill=8, threshold=1e-6))
        assert f8.nnz > f2.nnz

    def test_smaller_t_more_fill(self, medium_poisson):
        fa = ilut(medium_poisson, ILUTParams(fill=10, threshold=1e-1))
        fb = ilut(medium_poisson, ILUTParams(fill=10, threshold=1e-6))
        assert fb.nnz > fa.nnz

    def test_t_zero_m_large_no_drops(self, small_poisson):
        n = small_poisson.shape[0]
        f = ilut(small_poisson, ILUTParams(fill=n, threshold=0.0))
        assert f.residual_matrix(small_poisson).frobenius_norm() < 1e-10

    def test_m_zero_keeps_diagonal_only(self, small_poisson):
        f = ilut(small_poisson, ILUTParams(fill=0, threshold=0.0))
        assert f.L.nnz == 0
        assert f.U.nnz == small_poisson.shape[0]

    def test_relative_threshold_scales_with_row(self):
        # scaling a row scales its tolerance: structure of factors unchanged
        A = poisson2d(6)
        D = A.to_dense()
        D[3] *= 1e6
        B = CSRMatrix.from_dense(D)
        fa = ilut(A, ILUTParams(fill=5, threshold=1e-3))
        fb = ilut(B, ILUTParams(fill=5, threshold=1e-3))
        # row 3 of U has same sparsity pattern in both
        ca, _ = fa.U.row(3)
        cb, _ = fb.U.row(3)
        assert ca.tolist() == cb.tolist()


class TestPreconditionerQuality:
    def test_better_than_nothing(self, medium_poisson, rng):
        A = medium_poisson
        b = rng.standard_normal(A.shape[0])
        f = ilut(A, ILUTParams(fill=5, threshold=1e-3))
        y = f.solve(b)
        assert np.linalg.norm(b - A @ y) < 0.9 * np.linalg.norm(b)

    def test_quality_improves_with_fill(self, medium_poisson, rng):
        A = medium_poisson
        b = rng.standard_normal(A.shape[0])
        r_loose = np.linalg.norm(b - A @ ilut(A, ILUTParams(fill=2, threshold=1e-1)).solve(b))
        r_tight = np.linalg.norm(b - A @ ilut(A, ILUTParams(fill=10, threshold=1e-6)).solve(b))
        assert r_tight < r_loose

    def test_nonsymmetric_matrix(self, small_nonsym, rng):
        A = small_nonsym
        f = ilut(A, ILUTParams(fill=5, threshold=1e-4))
        b = rng.standard_normal(A.shape[0])
        y = f.solve(b)
        assert np.linalg.norm(b - A @ y) < 0.5 * np.linalg.norm(b)


class TestValidationAndGuards:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            ilut(CSRMatrix.zeros(2, 3), ILUTParams(fill=1, threshold=0.1))

    def test_rejects_negative_m(self, small_poisson):
        with pytest.raises(ValueError):
            ilut(small_poisson, ILUTParams(fill=-1, threshold=0.1))

    def test_rejects_negative_t(self, small_poisson):
        with pytest.raises(ValueError):
            ilut(small_poisson, ILUTParams(fill=1, threshold=-0.1))

    def test_zero_pivot_guard(self):
        # structurally singular row: zero diagonal never filled
        A = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        f = ilut(A, ILUTParams(fill=2, threshold=0.0))
        assert np.all(f.U.diagonal() != 0.0)

    def test_zero_pivot_raises_without_guard(self):
        A = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ZeroDivisionError):
            ilut(A, ILUTParams(fill=2, threshold=0.0), pivot_policy=PivotPolicy("raise"))

    def test_1x1(self):
        A = CSRMatrix.from_dense(np.array([[3.0]]))
        f = ilut(A, ILUTParams(fill=1, threshold=0.0))
        assert f.U.get(0, 0) == 3.0

    def test_stats_populated(self, small_poisson):
        f = ilut(small_poisson, ILUTParams(fill=5, threshold=1e-3))
        assert f.stats["flops"] > 0
        assert f.stats["fill_nnz"] == f.nnz
