"""Sequential sparse operations: triangular solves, L/D/U split, flop count.

The triangular solves here are a general row-by-row API (one
``np.dot`` per row).  Preconditioner applications do not use them: they
run in the library's one summation order on the level schedules of
:mod:`repro.kernels.triangular` (serial) and :mod:`repro.ilu.triangular`
(the paper's §5 parallel apply).
"""

from __future__ import annotations

import numpy as np

from ..resilience import ZeroDiagonalError, ZeroPivotError
from .csr import CSRMatrix

__all__ = [
    "lower_solve_unit",
    "upper_solve",
    "lower_solve",
    "split_lu",
    "count_triangular_flops",
]


def lower_solve_unit(L: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``(I + L) x = b`` where ``L`` is strictly lower triangular.

    This matches the library's factor convention: the L factor is stored
    without its (implicit, unit) diagonal.
    """
    n = L.shape[0]
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"L must be square, got {L.shape}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"b has shape {b.shape}, expected ({n},)")
    x = b.copy()
    for i in range(n):
        cols, vals = L.row(i)
        if cols.size:
            if cols[-1] >= i:
                raise ValueError(f"L is not strictly lower triangular at row {i}")
            x[i] -= np.dot(vals, x[cols])
    return x


def upper_solve(U: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` where ``U`` is upper triangular with its diagonal stored."""
    n = U.shape[0]
    if U.shape[0] != U.shape[1]:
        raise ValueError(f"U must be square, got {U.shape}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"b has shape {b.shape}, expected ({n},)")
    x = b.copy()
    for i in range(n - 1, -1, -1):
        cols, vals = U.row(i)
        if cols.size == 0 or cols[0] != i:
            raise ZeroDiagonalError(f"U has no stored diagonal at row {i}", row=i)
        if vals[0] == 0.0:
            raise ZeroPivotError(f"zero pivot in U at row {i}", row=i, value=0.0)
        if cols.size > 1:
            x[i] -= np.dot(vals[1:], x[cols[1:]])
        x[i] /= vals[0]
    return x


def lower_solve(L: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` for a lower-triangular ``L`` with stored diagonal."""
    n = L.shape[0]
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"L must be square, got {L.shape}")
    b = np.asarray(b, dtype=np.float64)
    x = b.copy()
    for i in range(n):
        cols, vals = L.row(i)
        if cols.size == 0 or cols[-1] != i:
            raise ZeroDiagonalError(f"L has no stored diagonal at row {i}", row=i)
        if vals[-1] == 0.0:
            raise ZeroPivotError(f"zero pivot in L at row {i}", row=i, value=0.0)
        if cols.size > 1:
            x[i] -= np.dot(vals[:-1], x[cols[:-1]])
        x[i] /= vals[-1]
    return x


def split_lu(
    A: CSRMatrix, *, require_diagonal: bool = True
) -> tuple[CSRMatrix, np.ndarray, CSRMatrix]:
    """Split ``A`` into (strict lower CSR, diagonal vector, strict upper CSR).

    The splittings feed relaxation sweeps and preconditioners that divide
    by the diagonal, so by default a zero or structurally missing
    diagonal entry raises
    :class:`~repro.verify.invariants.InvariantViolation` naming the
    offending row (pass ``require_diagonal=False`` to get the raw split
    with zeros instead).  The split itself is
    :func:`repro.kernels.csr.csr_split_lu`.
    """
    from ..kernels.csr import csr_split_lu

    L, diag, U = csr_split_lu(A)
    if require_diagonal:
        _require_nonzero_diagonal(diag)
    return L, diag, U


def _require_nonzero_diagonal(diag: np.ndarray) -> None:
    bad = np.flatnonzero(diag == 0.0)
    if bad.size:
        from ..verify.invariants import InvariantViolation

        raise InvariantViolation(
            f"split_lu: zero or missing diagonal at row {int(bad[0])}"
            + (f" (and {bad.size - 1} more rows)" if bad.size > 1 else "")
        )


def count_triangular_flops(L: CSRMatrix, U: CSRMatrix) -> int:
    """Multiply-add + divide count of one forward+backward substitution."""
    # forward: one mul-add per off-diagonal L entry (unit diagonal)
    # backward: one mul-add per off-diagonal U entry + one divide per row
    n = U.shape[0]
    u_offdiag = U.nnz - n
    return int(2 * L.nnz + 2 * u_offdiag + n)
