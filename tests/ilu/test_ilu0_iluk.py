"""Unit tests for the ILU(0) and ILU(k) static-pattern baselines."""

import numpy as np
import pytest

from repro.ilu import ilu0, iluk, iluk_symbolic, ilut
from repro.ilu.params import ILUTParams
from repro.matrices import poisson2d, random_diag_dominant
from repro.sparse import CSRMatrix


class TestILU0:
    def test_pattern_equals_matrix(self, medium_poisson):
        f = ilu0(medium_poisson)
        assert f.nnz == medium_poisson.nnz

    def test_exact_on_pattern(self, small_poisson):
        """(I+L)U agrees with A at every stored position of A."""
        f = ilu0(small_poisson)
        R = f.residual_matrix(small_poisson)
        for i, cols, vals in R.iter_rows():
            pa, _ = small_poisson.row(i)
            on_pattern = np.isin(cols, pa)
            assert np.allclose(vals[on_pattern], 0.0, atol=1e-12)

    def test_exact_when_no_fill_possible(self):
        # tridiagonal: LU creates no fill, so ILU(0) is the exact LU
        n = 20
        D = np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), 1) + np.diag(
            np.full(n - 1, -1.0), -1
        )
        A = CSRMatrix.from_dense(D)
        f = ilu0(A)
        assert f.residual_matrix(A).frobenius_norm() < 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            ilu0(CSRMatrix.zeros(2, 3))

    def test_zero_pivot_guard(self):
        A = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        f = ilu0(A, diag_guard=True)
        assert np.all(f.U.diagonal() != 0.0)
        with pytest.raises(ZeroDivisionError):
            ilu0(A, diag_guard=False)

    def test_matches_scipy_spilu_drop_rule_quality(self, medium_poisson, rng):
        # not bit-identical to scipy's (different pivoting), but comparable
        # quality: one application reduces the residual
        f = ilu0(medium_poisson)
        b = rng.standard_normal(medium_poisson.shape[0])
        y = f.solve(b)
        assert np.linalg.norm(b - medium_poisson @ y) < np.linalg.norm(b)


class TestILUkSymbolic:
    def test_level0_is_matrix_pattern(self, small_poisson):
        pat = iluk_symbolic(small_poisson, 0)
        for i, (cols, levels) in enumerate(pat):
            a_cols, _ = small_poisson.row(i)
            expect = sorted(set(a_cols.tolist()) | {i})
            assert cols.tolist() == expect
            assert np.all(levels == 0)

    def test_levels_monotone_in_k(self, small_poisson):
        p1 = iluk_symbolic(small_poisson, 1)
        p2 = iluk_symbolic(small_poisson, 2)
        for (c1, _), (c2, _) in zip(p1, p2):
            assert set(c1.tolist()) <= set(c2.tolist())

    def test_large_k_gives_full_lu_pattern(self, small_diagdom):
        # with k = n the pattern includes all positions the exact LU fills
        n = small_diagdom.shape[0]
        f = iluk(small_diagdom, n)
        R = f.residual_matrix(small_diagdom)
        assert R.frobenius_norm() < 1e-9 * small_diagdom.frobenius_norm()


class TestILUk:
    def test_k0_same_pattern_as_ilu0(self, medium_poisson):
        f0 = ilu0(medium_poisson)
        fk = iluk(medium_poisson, 0)
        assert f0.L.allclose(fk.L) and f0.U.allclose(fk.U)

    def test_fill_grows_with_k(self, medium_poisson):
        sizes = [iluk(medium_poisson, k).nnz for k in (0, 1, 2, 3)]
        assert sizes == sorted(sizes)
        assert sizes[3] > sizes[0]

    def test_quality_improves_with_k(self, medium_poisson, rng):
        A = medium_poisson
        b = rng.standard_normal(A.shape[0])
        res = []
        for k in (0, 2, 4):
            y = iluk(A, k).solve(b)
            res.append(np.linalg.norm(b - A @ y))
        assert res[2] < res[0]

    def test_rejects_negative_k(self, small_poisson):
        with pytest.raises(ValueError):
            iluk(small_poisson, -1)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            iluk(CSRMatrix.zeros(2, 3), 1)

    def test_iluk_insensitive_to_magnitude_ilut_is_not(self):
        """The paper's §2 argument: ILU(k) drops by position, ILUT by value."""
        # matrix with one huge off-pattern-fill-producing entry
        A = poisson2d(8)
        D = A.to_dense()
        D[10, 40] = 1e-9  # tiny entry far from the diagonal
        D[40, 10] = 1e-9
        B = CSRMatrix.from_dense(D)
        fk = iluk(B, 0)
        ft = ilut(B, ILUTParams(fill=5, threshold=1e-3))
        # ILU(0) keeps the tiny entry (it is in the pattern)
        assert fk.U.get(10, 40) != 0.0
        # ILUT drops it (below the relative threshold)
        assert ft.U.get(10, 40) == 0.0
