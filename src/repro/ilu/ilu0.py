"""ILU(0): zero-fill incomplete factorization (static-pattern baseline).

The set S of kept positions is exactly the sparsity pattern of A
(paper §2): no fill is ever created, which is why a *colouring* of the
interface graph computed up-front suffices to parallelise it (Figure 1a)
— the property ILUT loses and that motivates the whole paper.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..resilience import ZeroPivotError
from ..sparse import CSRMatrix
from .factors import ILUFactors
from .row import PivotRow, eliminate_in_pattern, split_at_diagonal
from .rowstore import RowsBuilder

__all__ = ["ilu0"]


def ilu0(A: CSRMatrix, *, diag_guard: bool = True) -> ILUFactors:
    """Compute ILU(0) of ``A`` in natural order.

    Identical to Gaussian elimination except that any update landing
    outside ``struct(A)`` is discarded.

    The pivot switch is ``diag_guard``, not ``pivot_policy=``: a zero
    pivot becomes the row's 2-norm (``1.0`` for an empty row), not
    :class:`~repro.resilience.PivotPolicy`'s drop threshold ``tau``, so a
    policy would change bits.  ``diag_guard=False`` raises
    :class:`~repro.resilience.ZeroPivotError` instead.
    """
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"ILU(0) requires a square matrix, got {A.shape}")
    L, U, flops = factor_in_pattern(A, None, diag_guard=diag_guard)
    return ILUFactors(
        L=L,
        U=U,
        perm=np.arange(A.shape[0], dtype=np.int64),
        stats={"flops": flops, "fill_nnz": L.nnz + U.nnz},
    )


def factor_in_pattern(
    A: CSRMatrix, patterns: Sequence[list[int]] | None, *, diag_guard: bool
) -> tuple[CSRMatrix, CSRMatrix, int]:
    """``(L, U, flops)`` of the natural-order elimination of ``A`` kept
    to ``patterns[i]`` in row ``i`` (``None``: the pattern of ``A``) —
    ILU(0) and the numeric half of ILU(k), one
    :func:`~repro.ilu.row.eliminate_in_pattern` call per row.  A zero
    pivot becomes the row's 2-norm (``1.0`` for an empty row), or raises
    :class:`~repro.resilience.ZeroPivotError` without ``diag_guard``."""
    n = A.shape[0]
    indptr, cols, vals = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    natural = range(n)
    pkey = [-1] * n
    pivot_rows: dict[int, PivotRow] = {}
    l_rows, u_rows = RowsBuilder(), RowsBuilder()
    flops = 0
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        row_cols = cols[lo:hi]
        pattern = row_cols if patterns is None else patterns[i]
        ops, row = eliminate_in_pattern(row_cols, vals[lo:hi], pattern, pkey, pivot_rows)
        flops += ops
        lower, diag, tail_cols, tail_vals = split_at_diagonal(i, row, natural)
        if diag == 0.0:
            if not diag_guard:
                raise ZeroPivotError(f"zero pivot at row {i}", row=i, value=0.0)
            a = A.data[lo:hi]
            norm = float(np.sqrt(np.dot(a, a)))
            diag = norm if norm > 0 else 1.0
        l_rows.add_entries(lower)
        u_rows.add([i, *tail_cols], [diag, *tail_vals])
        pivot_rows[i] = (tail_cols, tail_vals, diag)
        pkey[i] = i
    L, U = (CSRMatrix(*rows.flat(), (n, n), check=False) for rows in (l_rows, u_rows))
    return L, U, flops
