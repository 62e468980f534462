"""Property-based tests (hypothesis) on the sparse substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import CSRMatrix

from ..ilu._accumulator import SparseRowAccumulator

# strategy: small random sparse matrices as (n, rows, cols, vals)


@st.composite
def coo_matrices(draw, max_n=12, max_nnz=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    nnz = draw(st.integers(min_value=0, max_value=max_nnz))
    rows = draw(
        st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return n, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(vals)


@settings(max_examples=60, deadline=None)
@given(coo_matrices())
def test_from_coo_matches_dense_assembly(data):
    n, rows, cols, vals = data
    A = CSRMatrix.from_coo(rows, cols, vals, (n, n))
    D = np.zeros((n, n))
    np.add.at(D, (rows, cols), vals)
    assert np.allclose(A.to_dense(), D)


@settings(max_examples=60, deadline=None)
@given(coo_matrices())
def test_csr_invariants(data):
    n, rows, cols, vals = data
    A = CSRMatrix.from_coo(rows, cols, vals, (n, n))
    # indptr monotone, covers nnz
    assert A.indptr[0] == 0 and A.indptr[-1] == A.nnz
    assert np.all(np.diff(A.indptr) >= 0)
    # rows sorted, unique
    for i in range(n):
        c, _ = A.row(i)
        if c.size > 1:
            assert np.all(np.diff(c) > 0)


@settings(max_examples=60, deadline=None)
@given(coo_matrices(), st.integers(0, 2**31 - 1))
def test_matvec_linear(data, seed):
    n, rows, cols, vals = data
    A = CSRMatrix.from_coo(rows, cols, vals, (n, n))
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    a = 2.5
    assert np.allclose(A @ (a * x + y), a * (A @ x) + A @ y, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(coo_matrices())
def test_transpose_involution_and_rmatvec(data):
    n, rows, cols, vals = data
    A = CSRMatrix.from_coo(rows, cols, vals, (n, n))
    At = A.transpose()
    assert At.transpose().allclose(A)
    x = np.arange(1.0, n + 1)
    assert np.allclose(A.rmatvec(x), At @ x)


@settings(max_examples=60, deadline=None)
@given(coo_matrices(), st.integers(0, 2**31 - 1))
def test_permutation_preserves_entries(data, seed):
    n, rows, cols, vals = data
    A = CSRMatrix.from_coo(rows, cols, vals, (n, n))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    B = A.permute(perm, perm)
    # B[k, l] == A[perm[k], perm[l]]
    D, DB = A.to_dense(), B.to_dense()
    assert np.allclose(DB, D[np.ix_(perm, perm)])
    # nnz preserved
    assert B.nnz == A.nnz


@settings(max_examples=60, deadline=None)
@given(coo_matrices())
def test_add_commutes_scale_distributes(data):
    n, rows, cols, vals = data
    A = CSRMatrix.from_coo(rows, cols, vals, (n, n))
    B = A.scale(0.5)
    assert (A + B).allclose(B + A)
    assert (A + A).allclose(A.scale(2.0))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 19), st.floats(-5, 5, allow_nan=False)),
        min_size=0,
        max_size=30,
    )
)
def test_accumulator_matches_dense_reference(ops):
    """Random axpy/set/drop sequences agree with a dense working vector."""
    w = SparseRowAccumulator(20)
    dense = np.zeros(20)
    for idx, val in ops:
        w.axpy(1.0, np.array([idx]), np.array([val]))
        dense[idx] += val
    cols, vals = w.extract()
    ref = np.zeros(20)
    ref[cols] = vals
    assert np.allclose(ref, dense)
    w.reset()
    assert len(w) == 0
