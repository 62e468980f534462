"""Row-by-row oracles of the triangular solves.

The library sums every triangular row one way: forward row ``i`` is
``y_i - (((0.0 + l_{i,c1} y_{c1}) + l_{i,c2} y_{c2}) + ...)`` over its
stored columns in stored order, and backward row ``i`` is the same over
the off-diagonal entries, divided by ``u_ii`` (stored first).  Here that
is a plain loop in Python floats, one row after the other — the
reference the §5 parallel apply (``parallel_triangular_solve``) and the
serial level applier (``LevelScheduledApplier``) must both reproduce
bit for bit.  ``levels`` is the per-row dependency recurrence the
library's ``triangular_levels`` runs over lists.
"""

import numpy as np


def forward(L, b):
    """``(I + L)^{-1} b`` for a strictly lower ``L`` (unit diagonal implicit)."""
    ptr, cols, vals = L.indptr.tolist(), L.indices.tolist(), L.data.tolist()
    y = np.asarray(b, dtype=np.float64).tolist()
    for i in range(len(y)):
        acc = 0.0
        for k in range(ptr[i], ptr[i + 1]):
            acc += vals[k] * y[cols[k]]
        y[i] = y[i] - acc
    return np.array(y, dtype=np.float64)


def backward(U, y):
    """``U^{-1} y`` for an upper ``U`` whose rows store the diagonal first."""
    ptr, cols, vals = U.indptr.tolist(), U.indices.tolist(), U.data.tolist()
    x = np.asarray(y, dtype=np.float64).tolist()
    for i in range(len(x) - 1, -1, -1):
        acc = 0.0
        for k in range(ptr[i] + 1, ptr[i + 1]):
            acc += vals[k] * x[cols[k]]
        x[i] = (x[i] - acc) / vals[ptr[i]]
    return np.array(x, dtype=np.float64)


def solve(factors, b):
    """``M^{-1} b`` in original ordering: permute, forward, backward, unpermute."""
    z = backward(factors.U, forward(factors.L, np.asarray(b, dtype=np.float64)[factors.perm]))
    out = np.empty_like(z)
    out[factors.perm] = z
    return out


def levels(M, *, lower):
    """Dependency level of every row, one row at a time over ``M.row``."""
    n = M.shape[0]
    out = np.zeros(n, dtype=np.int64)
    for i in range(n) if lower else range(n - 1, -1, -1):
        cols, _ = M.row(i)
        deps = cols[cols < i] if lower else cols[cols > i]
        if deps.size:
            out[i] = int(out[deps].max()) + 1
    return out
