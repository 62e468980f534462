"""Unit tests for the ILUM multi-elimination factorization."""

import numpy as np
import pytest

from repro.ilu import ilum, ilut
from repro.ilu.params import ILUTParams
from repro.kernels import cached_schedules
from repro.matrices import poisson2d, random_diag_dominant
from repro.resilience import PivotPolicy, ZeroPivotError
from repro.sparse import CSRMatrix


class TestExactLimit:
    def test_no_dropping_exact(self, small_diagdom):
        n = small_diagdom.shape[0]
        f = ilum(small_diagdom, n, 0.0)
        R = f.residual_matrix(small_diagdom)
        assert R.frobenius_norm() < 1e-9 * small_diagdom.frobenius_norm()

    def test_no_dropping_exact_poisson(self, small_poisson):
        n = small_poisson.shape[0]
        f = ilum(small_poisson, n, 0.0)
        assert f.residual_matrix(small_poisson).frobenius_norm() < 1e-8

    def test_solve_matches_direct(self, small_diagdom, rng):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        A = small_diagdom
        n = A.shape[0]
        f = ilum(A, n, 0.0)
        b = rng.standard_normal(n)
        x_ref = spla.spsolve(
            sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape).tocsc(), b
        )
        assert np.allclose(f.solve(b), x_ref, rtol=1e-8, atol=1e-9)


class TestStructure:
    def test_perm_bijection_and_levels(self, medium_poisson):
        f = ilum(medium_poisson, 5, 1e-3)
        n = medium_poisson.shape[0]
        assert sorted(f.perm.tolist()) == list(range(n))
        f.levels.validate(n)
        assert f.levels.num_levels >= 1

    def test_factors_triangular(self, medium_poisson):
        f = ilum(medium_poisson, 5, 1e-3)
        for i in range(f.n):
            lc, _ = f.L.row(i)
            uc, _ = f.U.row(i)
            assert lc.size == 0 or lc.max() < i
            assert uc.size and uc[0] == i

    def test_first_level_is_mis_of_A(self, small_poisson):
        """Level 0 rows are mutually independent in struct(A)."""
        f = ilum(small_poisson, 5, 1e-3)
        lvl0 = set(f.perm[f.levels.interface_levels[0]].tolist())
        for v in lvl0:
            cols, _ = small_poisson.row(v)
            assert not (set(cols.tolist()) & lvl0) - {v}

    def test_row_caps(self, medium_poisson):
        m = 4
        f = ilum(medium_poisson, m, 1e-4)
        assert f.L.row_nnz().max() <= m
        assert f.U.row_nnz().max() <= m + 1

    def test_fewer_apply_levels_than_natural_ilut(self, medium_poisson):
        """Multi-elimination ordering shortens dependency chains."""
        f_ilum = ilum(medium_poisson, 5, 1e-3)
        f_ilut = ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-3))
        assert cached_schedules(f_ilum)[0].num_levels < cached_schedules(f_ilut)[0].num_levels


class TestQuality:
    def test_preconditioner_quality(self, medium_poisson, rng):
        from repro.solvers import ILUPreconditioner, gmres

        A = medium_poisson
        b = rng.standard_normal(A.shape[0])
        res = gmres(A, b, restart=20, M=ILUPreconditioner(ilum(A, 10, 1e-4)), maxiter=3000)
        plain = gmres(A, b, restart=20, maxiter=3000)
        assert res.converged
        assert res.num_matvec < 0.5 * plain.num_matvec

    def test_reduced_cap_variant(self, medium_poisson):
        f_capped = ilum(medium_poisson, 5, 1e-6, reduced_cap=10)
        f_plain = ilum(medium_poisson, 5, 1e-6)
        assert f_capped.levels.num_levels <= f_plain.levels.num_levels


class TestValidation:
    def test_rejects_bad_params(self, small_poisson):
        with pytest.raises(ValueError):
            ilum(CSRMatrix.zeros(2, 3), 1, 0.1)
        with pytest.raises(ValueError):
            ilum(small_poisson, -1, 0.1)
        with pytest.raises(ValueError):
            ilum(small_poisson, 1, -0.1)

    def test_max_levels_guard(self, small_diagdom):
        with pytest.raises(RuntimeError):
            ilum(small_diagdom, 60, 0.0, max_levels=1)

    def test_zero_pivot_guard(self):
        A = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        f = ilum(A, 2, 0.0)
        assert np.all(f.U.diagonal() != 0.0)

    def test_nan_pivot_goes_through_the_pivot_policy(self):
        """A NaN pivot is a breakdown (:class:`PivotPolicy`), as in ILUT
        and the parallel engines: the default guard substitutes a pivot
        instead of dividing by NaN — here 1.0, since the row's tau and
        norm are NaN too — and ``PivotPolicy("raise")`` raises."""
        A = CSRMatrix.from_coo([0, 0, 1, 1], [0, 1, 0, 1], [np.nan, 1.0, 1.0, 4.0], (2, 2))
        f = ilum(A, 2, 0.1)
        p = int(np.flatnonzero(f.perm == 0)[0])
        assert f.U.get(p, p) == 1.0
        assert np.isfinite(f.L.data).all() and np.isfinite(f.U.data).all()
        with pytest.raises(ZeroPivotError):
            ilum(A, 2, 0.1, pivot_policy=PivotPolicy("raise"))

    def test_deterministic(self, medium_poisson):
        f1 = ilum(medium_poisson, 5, 1e-3, seed=4)
        f2 = ilum(medium_poisson, 5, 1e-3, seed=4)
        assert f1.L.allclose(f2.L, rtol=0, atol=0)
        assert np.array_equal(f1.perm, f2.perm)
