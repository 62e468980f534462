"""The CSR kernels against their per-row scalar oracles (``_scalar``):
equal bits, not close ones."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import CSRMatrix
from repro.kernels import (
    csr_diagonal,
    csr_gather_rows,
    csr_matvec,
    csr_matvec_rows,
    csr_row_norms,
    csr_split_lu,
)

from . import _scalar


@st.composite
def coo_matrices(draw, max_n=12, max_nnz=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    nnz = draw(st.integers(min_value=0, max_value=max_nnz))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    vals = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return (
        n,
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals),
    )


def row_scale_matrix():
    """Rows 0-2 sum terms of scale 1e8, rows 3-5 terms of scale 1: the
    input where differencing a running prefix sum loses the small rows'
    bits and a per-row sum from ``0.0`` does not."""
    rows = [0, 0, 1, 1, 2, 2, 3, 3, 3, 4, 4, 5, 5]
    cols = [0, 1, 1, 2, 0, 2, 3, 4, 5, 4, 5, 3, 5]
    vals = [1e8, 3e8, 2e8, 1e8, 1e8, 5e8, 0.7, 0.9, 0.3, 0.1, 0.2, 1.3, 0.6]
    return CSRMatrix.from_coo(rows, cols, vals, (6, 6))


ROW_SCALE_X = np.array([1.0, 1.0, 1.0, 0.1, 0.3, 0.7])


class TestCsrMatvec:
    def test_matches_reference(self, medium_poisson):
        x = np.sin(np.arange(medium_poisson.shape[0], dtype=np.float64))
        assert np.array_equal(csr_matvec(medium_poisson, x), _scalar.matvec(medium_poisson, x))

    def test_method_is_the_kernel(self, small_nonsym):
        x = np.linspace(-1, 1, small_nonsym.shape[0])
        assert np.array_equal(small_nonsym.matvec(x), csr_matvec(small_nonsym, x))
        assert np.array_equal(small_nonsym @ x, _scalar.matvec(small_nonsym, x))

    def test_out_parameter(self, small_poisson):
        x = np.ones(small_poisson.shape[0])
        out = np.empty(small_poisson.shape[0])
        got = csr_matvec(small_poisson, x, out=out)
        assert got is out
        assert np.array_equal(out, _scalar.matvec(small_poisson, x))

    def test_rejects_bad_shape(self, small_poisson):
        with pytest.raises(ValueError):
            csr_matvec(small_poisson, np.ones(small_poisson.shape[0] + 1))

    def test_rows_kernel_equals_the_full_product(self, medium_poisson):
        x = np.cos(np.arange(medium_poisson.shape[0], dtype=np.float64))
        rows = np.array([7, 3, 3, 0, medium_poisson.shape[0] - 1], dtype=np.int64)
        assert np.array_equal(csr_matvec_rows(medium_poisson, x, rows), csr_matvec(medium_poisson, x)[rows])
        assert csr_matvec_rows(medium_poisson, x, rows[:0]).shape == (0,)

    def test_small_rows_after_large_ones_keep_their_bits(self):
        A = row_scale_matrix()
        want = _scalar.matvec(A, ROW_SCALE_X)
        assert np.array_equal(A.matvec(ROW_SCALE_X), want)
        assert np.array_equal(csr_matvec_rows(A, ROW_SCALE_X, np.arange(3, 6)), want[3:])
        prefix = _scalar.prefix_sums(A.data * ROW_SCALE_X[A.indices], A.indptr)
        assert not np.array_equal(prefix[3:], want[3:])

    @settings(max_examples=40, deadline=None)
    @given(coo_matrices())
    def test_hypothesis_parity(self, data):
        n, rows, cols, vals = data
        A = CSRMatrix.from_coo(rows, cols, vals, (n, n))
        x = np.linspace(-2, 2, n)
        assert np.array_equal(csr_matvec(A, x), _scalar.matvec(A, x))
        picked = np.arange(n - 1, -1, -2, dtype=np.int64)
        assert np.array_equal(csr_matvec_rows(A, x, picked), _scalar.matvec(A, x)[picked])


class TestCsrRowNorms:
    @pytest.mark.parametrize("ord", [2, 1, np.inf])
    def test_matches_reference(self, small_geometric, ord):
        got = csr_row_norms(small_geometric, ord=ord)
        assert np.array_equal(got, _scalar.row_norms(small_geometric, ord))
        assert np.array_equal(small_geometric.row_norms(ord=ord), got)

    def test_inf_norm_is_exact(self, small_diagdom):
        want = np.abs(small_diagdom.to_dense()).max(axis=1)
        assert np.array_equal(csr_row_norms(small_diagdom, ord=np.inf), want)

    def test_rejects_unknown_ord(self, small_poisson):
        with pytest.raises(ValueError):
            csr_row_norms(small_poisson, ord=3)

    @pytest.mark.parametrize("ord", [2, 1])
    def test_small_rows_after_large_ones_keep_their_bits(self, ord):
        A = row_scale_matrix()
        want = _scalar.row_norms(A, ord)
        assert np.array_equal(A.row_norms(ord=ord), want)
        terms = A.data * A.data if ord == 2 else np.abs(A.data)
        prefix = _scalar.prefix_sums(terms, A.indptr)
        if ord == 2:
            prefix = np.sqrt(prefix)
        assert not np.array_equal(prefix[3:], want[3:])

    @settings(max_examples=40, deadline=None)
    @given(coo_matrices())
    def test_hypothesis_parity(self, data):
        n, rows, cols, vals = data
        A = CSRMatrix.from_coo(rows, cols, vals, (n, n))
        for ord in (2, 1, np.inf):
            assert np.array_equal(csr_row_norms(A, ord=ord), _scalar.row_norms(A, ord))


class TestCsrDiagonal:
    def test_matches_dense_diag(self, small_nonsym):
        assert np.array_equal(
            csr_diagonal(small_nonsym), np.diag(small_nonsym.to_dense())
        )
        assert np.array_equal(small_nonsym.diagonal(), _scalar.diagonal(small_nonsym))

    def test_missing_entries_are_zero(self):
        A = CSRMatrix.from_coo([0, 2], [0, 2], [5.0, 7.0], (3, 3))
        assert np.array_equal(csr_diagonal(A), [5.0, 0.0, 7.0])

    def test_rectangular(self):
        A = CSRMatrix.from_coo([0, 1, 2], [0, 1, 0], [5.0, 7.0, 9.0], (3, 2))
        assert np.array_equal(A.diagonal(), _scalar.diagonal(A))


class TestSplitLuVectorized:
    @settings(max_examples=40, deadline=None)
    @given(coo_matrices())
    def test_hypothesis_bit_parity(self, data):
        n, rows, cols, vals = data
        A = CSRMatrix.from_coo(rows, cols, vals, (n, n))
        L0, d0, U0 = _scalar.split_lu(A)
        L1, d1, U1 = csr_split_lu(A)
        assert np.array_equal(d0, d1)
        for M0, M1 in [(L0, L1), (U0, U1)]:
            assert np.array_equal(M0.indptr, M1.indptr)
            assert np.array_equal(M0.indices, M1.indices)
            assert np.array_equal(M0.data, M1.data)


class TestCsrGatherRows:
    def test_matches_scalar_row_walk(self, medium_poisson):
        A = medium_poisson
        picked = np.array([5, 0, 3, 5], dtype=np.int64)  # order + repeats kept
        ii, cc, flat = csr_gather_rows(A, picked)
        ref_rows, ref_cols, ref_vals = [], [], []
        for i in picked:
            cols, vals = A.row(int(i))
            ref_rows.extend([int(i)] * cols.size)
            ref_cols.extend(cols.tolist())
            ref_vals.extend(vals.tolist())
        assert ii.tolist() == ref_rows
        assert cc.tolist() == ref_cols
        assert A.data[flat].tolist() == ref_vals

    def test_empty_selection(self, small_poisson):
        ii, cc, flat = csr_gather_rows(small_poisson, np.empty(0, dtype=np.int64))
        assert ii.size == cc.size == flat.size == 0

    @settings(max_examples=40, deadline=None)
    @given(coo_matrices())
    def test_hypothesis_bit_parity(self, data):
        n, rows, cols, vals = data
        A = CSRMatrix.from_coo(rows, cols, vals, (n, n))
        picked = np.arange(n - 1, -1, -1, dtype=np.int64)  # reversed order
        ii, cc, flat = csr_gather_rows(A, picked)
        off = 0
        for i in picked:
            rc, rv = A.row(int(i))
            assert np.array_equal(cc[off : off + rc.size], rc)
            assert np.array_equal(ii[off : off + rc.size], np.full(rc.size, i))
            assert np.array_equal(A.data[flat[off : off + rc.size]], rv)
            off += rc.size
        assert off == ii.size
