"""Unit tests for sequential triangular solves and L/U splitting."""

import numpy as np
import pytest

from repro.kernels import use_backend
from repro.sparse import (
    CSRMatrix,
    count_triangular_flops,
    lower_solve,
    lower_solve_unit,
    split_lu,
    upper_solve,
)


def lower_example():
    return np.array(
        [
            [0.0, 0.0, 0.0],
            [2.0, 0.0, 0.0],
            [1.0, -3.0, 0.0],
        ]
    )


def upper_example():
    return np.array(
        [
            [2.0, -1.0, 3.0],
            [0.0, 4.0, 1.0],
            [0.0, 0.0, -5.0],
        ]
    )


class TestLowerSolveUnit:
    def test_matches_dense(self, rng):
        L = CSRMatrix.from_dense(lower_example())
        b = rng.standard_normal(3)
        x = lower_solve_unit(L, b)
        assert np.allclose((np.eye(3) + lower_example()) @ x, b)

    def test_empty_L_is_identity(self):
        L = CSRMatrix.zeros(4)
        b = np.arange(4.0)
        assert np.allclose(lower_solve_unit(L, b), b)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            lower_solve_unit(CSRMatrix.zeros(2, 3), np.ones(2))

    def test_rejects_bad_rhs(self):
        with pytest.raises(ValueError):
            lower_solve_unit(CSRMatrix.zeros(3), np.ones(4))

    def test_rejects_diagonal_entry(self):
        L = CSRMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            lower_solve_unit(L, np.ones(2))


class TestUpperSolve:
    def test_matches_dense(self, rng):
        U = CSRMatrix.from_dense(upper_example())
        b = rng.standard_normal(3)
        x = upper_solve(U, b)
        assert np.allclose(upper_example() @ x, b)

    def test_missing_diagonal_raises(self):
        U = CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            upper_solve(U, np.ones(2))

    def test_zero_pivot_raises(self):
        U = CSRMatrix.from_coo([0, 1], [0, 1], [1.0, 0.0], (2, 2))
        with pytest.raises(ZeroDivisionError):
            upper_solve(U, np.ones(2))

    def test_diagonal_only(self):
        U = CSRMatrix.from_dense(np.diag([2.0, 4.0]))
        assert np.allclose(upper_solve(U, np.array([2.0, 8.0])), [1.0, 2.0])


class TestLowerSolveWithDiag:
    def test_matches_dense(self, rng):
        D = lower_example() + np.diag([2.0, 3.0, 4.0])
        L = CSRMatrix.from_dense(D)
        b = rng.standard_normal(3)
        assert np.allclose(D @ lower_solve(L, b), b)

    def test_zero_pivot_raises(self):
        L = CSRMatrix.from_coo([0, 1, 1], [0, 0, 1], [1.0, 1.0, 0.0], (2, 2))
        with pytest.raises(ZeroDivisionError):
            lower_solve(L, np.ones(2))


class TestSplitLU:
    def test_roundtrip(self, small_poisson):
        L, d, U = split_lu(small_poisson)
        n = small_poisson.shape[0]
        import numpy as np

        rebuilt = L.to_dense() + np.diag(d) + U.to_dense()
        assert np.allclose(rebuilt, small_poisson.to_dense())

    def test_parts_are_triangular(self, small_poisson):
        L, _, U = split_lu(small_poisson)
        for i, cols, _ in L.iter_rows():
            assert np.all(cols < i)
        for i, cols, _ in U.iter_rows():
            assert np.all(cols > i)

    # the three checks below run under both names the inert ``use_backend``
    # accepts: it selects nothing

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_missing_diagonal_raises_naming_row(self, backend):
        from repro.verify.invariants import InvariantViolation

        # row 1 has no diagonal entry at all
        A = CSRMatrix.from_coo([0, 1, 2], [0, 0, 2], [1.0, 2.0, 3.0], (3, 3))
        with use_backend(backend), pytest.raises(InvariantViolation, match="row 1"):
            split_lu(A)

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_zero_diagonal_raises_naming_row(self, backend):
        from repro.verify.invariants import InvariantViolation

        A = CSRMatrix.from_coo(
            [0, 1, 2, 2], [0, 1, 1, 2], [1.0, 0.0, 5.0, 3.0], (3, 3)
        )
        with use_backend(backend), pytest.raises(InvariantViolation, match="row 1"):
            split_lu(A)

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_require_diagonal_false_allows_holes(self, backend):
        A = CSRMatrix.from_coo([0, 1, 2], [0, 0, 2], [1.0, 2.0, 3.0], (3, 3))
        with use_backend(backend):
            L, d, U = split_lu(A, require_diagonal=False)
        assert d[1] == 0.0
        assert L.nnz == 1 and U.nnz == 0

    def test_matches_the_row_oracle(self, small_poisson):
        import numpy as np

        from ..kernels import _scalar

        L0, d0, U0 = _scalar.split_lu(small_poisson)
        L1, d1, U1 = split_lu(small_poisson)
        assert np.array_equal(d0, d1)
        for M0, M1 in [(L0, L1), (U0, U1)]:
            assert np.array_equal(M0.indptr, M1.indptr)
            assert np.array_equal(M0.indices, M1.indices)
            assert np.array_equal(M0.data, M1.data)


class TestFlopCount:
    def test_count(self):
        L = CSRMatrix.from_dense(lower_example())
        U = CSRMatrix.from_dense(upper_example())
        n = 3
        expected = 2 * L.nnz + 2 * (U.nnz - n) + n
        assert count_triangular_flops(L, U) == expected
