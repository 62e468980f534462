"""Vectorized CSR kernels: matvec, row norms, diagonal and L/D/U split.

These are the ``backend="vectorized"`` counterparts of the scalar code
in :mod:`repro.sparse.csr` and :mod:`repro.sparse.ops`.  All of them are
pure whole-array numpy; the per-row segment sums of the matvec and the
row norms use the prefix-sum trick (``cumsum`` differenced at the row
pointers) rather than ``np.add.at``, which keeps them O(nnz) without the
dispatch overhead of ufunc.at and handles empty rows for free.  The
triangular solves no longer use it: they sum each row left to right
from ``0.0`` with ``np.bincount`` (:mod:`repro.kernels.triangular`).

Parity: entry *selection* (split, diagonal) is element-exact against the
reference; floating-point *sums* (matvec, row norms) agree to <= 1e-12
relative because prefix-sum association differs from per-row ``np.dot``.
That bound holds for the test matrices, not for the kernel: a row's
absolute error is about eps times everything summed before it, so a
small row after large ones loses its relative accuracy.  Moving matvec
and norms onto the triangular solves' order is ROADMAP item 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..sparse.csr import CSRMatrix

__all__ = [
    "segment_sums",
    "csr_matvec",
    "csr_row_norms",
    "csr_diagonal",
    "csr_gather_rows",
    "split_lu_vectorized",
]


def segment_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment sums of ``values`` delimited by ``indptr`` boundaries.

    ``out[i] = values[indptr[i]:indptr[i+1]].sum()`` for every segment,
    including empty ones, via one prefix sum and one gather/difference.
    """
    prefix = np.empty(values.size + 1, dtype=np.float64)
    prefix[0] = 0.0
    np.cumsum(values, out=prefix[1:])
    return prefix[indptr[1:]] - prefix[indptr[:-1]]


def csr_matvec(
    A: CSRMatrix, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized ``y = A @ x`` (prefix-sum segment reduction)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.shape[1],):
        raise ValueError(f"x has shape {x.shape}, expected ({A.shape[1]},)")
    sums = segment_sums(A.data * x[A.indices], A.indptr)
    if out is None:
        return sums
    out[:] = sums
    return out


def csr_row_norms(A: CSRMatrix, ord: int | float = 2) -> np.ndarray:
    """Vectorized per-row vector norms (2, 1 or inf)."""
    if ord == 2:
        return np.sqrt(segment_sums(A.data * A.data, A.indptr))
    if ord == 1:
        return segment_sums(np.abs(A.data), A.indptr)
    if ord == np.inf:
        out = np.zeros(A.shape[0], dtype=np.float64)
        np.maximum.at(out, _row_ids(A), np.abs(A.data))
        return out
    raise ValueError(f"unsupported norm order {ord!r}")


def _row_ids(A: CSRMatrix) -> np.ndarray:
    return np.repeat(
        np.arange(A.shape[0], dtype=np.int64), np.diff(A.indptr)
    )


def csr_gather_rows(
    A: CSRMatrix, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stored entries of ``rows`` as flat ``(row, col, flat-index)`` arrays.

    The entries come out in the caller's row order, storage order within
    each row — exactly the order a scalar ``for i in rows: A.row(i)``
    walk visits them, which is what lets driver loops swap to this
    without perturbing any order-sensitive accumulation.  The third
    array indexes into ``A.indices``/``A.data`` for value gathers.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = A.indptr[rows]
    lens = A.indptr[rows + 1] - starts
    flat = np.arange(int(lens.sum()), dtype=np.int64)
    if rows.size:
        ends = np.cumsum(lens)
        flat += np.repeat(starts - (ends - lens), lens)
    return np.repeat(rows, lens), A.indices[flat], flat


def csr_diagonal(A: CSRMatrix) -> np.ndarray:
    """Vectorized main diagonal (zeros where unstored)."""
    n = min(A.shape)
    rows = _row_ids(A)
    on = (A.indices == rows) & (rows < n)
    d = np.zeros(n, dtype=np.float64)
    d[rows[on]] = A.data[on]
    return d


def split_lu_vectorized(
    A: CSRMatrix,
) -> tuple[CSRMatrix, np.ndarray, CSRMatrix]:
    """Vectorized split of ``A`` into (strict lower, diagonal, strict upper).

    Entry selection and ordering are identical to the reference
    :func:`repro.sparse.ops.split_lu`; no per-row Python loop.  The
    diagonal-presence check (and the :class:`InvariantViolation` it
    raises) lives in the dispatching wrapper, not here.
    """
    from ..sparse.csr import CSRMatrix

    n = A.shape[0]
    rows = _row_ids(A)
    below = A.indices < rows
    above = A.indices > rows
    on = ~below & ~above
    diag = np.zeros(n, dtype=np.float64)
    diag[rows[on]] = A.data[on]

    def build(mask: np.ndarray) -> CSRMatrix:
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[mask], minlength=n), out=indptr[1:])
        return CSRMatrix(
            indptr, A.indices[mask], A.data[mask], (n, n), check=False
        )

    return build(below), diag, build(above)
