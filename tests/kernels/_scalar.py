"""Per-row scalar oracles of the CSR kernels in ``repro.kernels.csr``.

The library sums every row one way: left to right from ``0.0`` over its
stored entries in stored order.  Here that is a plain loop in Python
floats, one row after the other — the reference ``CSRMatrix.matvec``,
``row_norms``, ``parallel_matvec`` and the split/diagonal kernels must
reproduce bit for bit.  ``prefix_sums`` is the row reduction the library
no longer has (a running prefix sum differenced at the row pointers),
kept so the tests can show an input where it loses a row's bits.
"""

import math

import numpy as np

from repro.sparse import CSRMatrix


def _rows(A):
    ptr, cols, vals = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    for i in range(A.shape[0]):
        yield i, cols[ptr[i] : ptr[i + 1]], vals[ptr[i] : ptr[i + 1]]


def matvec(A, x):
    """``A @ x``, each row ``((0.0 + a_1 x_1) + a_2 x_2) + ...``."""
    x = np.asarray(x, dtype=np.float64).tolist()
    y = []
    for _, cols, vals in _rows(A):
        acc = 0.0
        for c, v in zip(cols, vals):
            acc += v * x[c]
        y.append(acc)
    return np.array(y, dtype=np.float64)


def row_norms(A, ord=2):
    """Per-row 2-, 1- or inf-norm, sums left to right from ``0.0``."""
    out = []
    for _, _, vals in _rows(A):
        if ord == 2:
            acc = 0.0
            for v in vals:
                acc += v * v
            out.append(math.sqrt(acc))
        elif ord == 1:
            acc = 0.0
            for v in vals:
                acc += abs(v)
            out.append(acc)
        else:
            out.append(max(map(abs, vals), default=0.0))
    return np.array(out, dtype=np.float64)


def diagonal(A):
    """Main diagonal, one ``A.get(i, i)`` per row."""
    return np.array([A.get(i, i) for i in range(min(A.shape))], dtype=np.float64)


def split_lu(A):
    """(strict lower, diagonal, strict upper), one row at a time."""
    n = A.shape[0]
    parts = {"L": ([], [], []), "U": ([], [], [])}
    diag = np.zeros(n, dtype=np.float64)
    for i, cols, vals in _rows(A):
        for c, v in zip(cols, vals):
            if c == i:
                diag[i] = v
            else:
                r, cc, vv = parts["L" if c < i else "U"]
                r.append(i)
                cc.append(c)
                vv.append(v)
    L, U = (CSRMatrix.from_coo(*parts[k], (n, n)) for k in ("L", "U"))
    return L, diag, U


def prefix_sums(values, indptr):
    """Per-row sums by differencing one running prefix sum: a row's
    absolute error is eps times everything summed before it."""
    prefix = np.concatenate(([0.0], np.cumsum(values)))
    return prefix[indptr[1:]] - prefix[indptr[:-1]]
