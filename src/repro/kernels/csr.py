"""CSR kernels: matvec, row norms, diagonal, L/D/U split and row gathers.

The library has one implementation of each operation, and it is here:
:class:`~repro.sparse.CSRMatrix` (``matvec``, ``row_norms``,
``diagonal``), :func:`repro.sparse.ops.split_lu` and the distributed
matvec (:mod:`repro.solvers.parallel_matvec`) call these functions.

Row sums use the library's one summation order, the order the
triangular solves use too (:mod:`repro.kernels.triangular`): each row
is summed left to right from ``0.0`` over its entries in stored order.
``np.bincount(row_ids, values, minlength=n)`` adds its weights in input
order into zeros, which is exactly that, so a row's sum depends on that
row alone.  The per-row scalar loops these kernels replaced are kept as
test oracles (``tests/kernels/_scalar.py``); the matvec and row norms
equal them bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..sparse.csr import CSRMatrix

__all__ = [
    "csr_matvec",
    "csr_matvec_rows",
    "csr_row_norms",
    "csr_diagonal",
    "csr_gather_rows",
    "csr_split_lu",
]


def _row_ids(A: CSRMatrix) -> np.ndarray:
    return np.arange(A.shape[0], dtype=np.int64).repeat(A.indptr[1:] - A.indptr[:-1])


def _row_sums(row_ids: np.ndarray, values: np.ndarray, nrows: int) -> np.ndarray:
    """Per-row sums of ``values``, each left to right from ``0.0``."""
    return np.bincount(row_ids, values, minlength=nrows).astype(np.float64, copy=False)


def csr_matvec(
    A: CSRMatrix, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``y = A @ x``, every row summed left to right from ``0.0``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.shape[1],):
        raise ValueError(f"x has shape {x.shape}, expected ({A.shape[1]},)")
    sums = _row_sums(_row_ids(A), A.data * x[A.indices], A.shape[0])
    if out is None:
        return sums
    out[:] = sums
    return out


def csr_matvec_rows(A: CSRMatrix, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(A @ x)[rows]``, bit for bit :func:`csr_matvec`'s entries, from
    the listed rows' entries only."""
    rows = np.asarray(rows, dtype=np.int64)
    _, cols, flat = csr_gather_rows(A, rows)
    local = np.repeat(np.arange(rows.size, dtype=np.int64), np.diff(A.indptr)[rows])
    return _row_sums(local, A.data[flat] * x[cols], rows.size)


def csr_row_norms(A: CSRMatrix, ord: int | float = 2) -> np.ndarray:
    """Per-row vector norms (2, 1 or inf)."""
    if ord == 2:
        return np.sqrt(_row_sums(_row_ids(A), A.data * A.data, A.shape[0]))
    if ord == 1:
        return _row_sums(_row_ids(A), np.abs(A.data), A.shape[0])
    if ord == np.inf:
        out = np.zeros(A.shape[0], dtype=np.float64)
        np.maximum.at(out, _row_ids(A), np.abs(A.data))
        return out
    raise ValueError(f"unsupported norm order {ord!r}")


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
    """Main diagonal (zeros where unstored)."""
    n = min(A.shape)
    rows = _row_ids(A)
    on = (A.indices == rows) & (rows < n)
    d = np.zeros(n, dtype=np.float64)
    d[rows[on]] = A.data[on]
    return d


def csr_split_lu(
    A: CSRMatrix,
) -> tuple[CSRMatrix, np.ndarray, CSRMatrix]:
    """Split ``A`` into (strict lower, diagonal, strict upper), entries
    in stored order.  The diagonal-presence check (and the
    :class:`InvariantViolation` it raises) is
    :func:`repro.sparse.ops.split_lu`'s."""
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
