"""Sequential ILUT(m, t) — Saad's dual-threshold incomplete LU.

This is Algorithm 3.1 of the paper, the serial baseline of the
evaluation, as a loop over the scalar row kernel (:mod:`repro.ilu.row`):
the same functions the parallel engine's phase 1 runs on every rank's
interior block (:mod:`repro.ilu.elimination`), so "a rank's interior
factorization is the serial ILUT restricted to its block" holds by
construction.  The classic full-working-row + nonzero-pointer loop it
replaced is the test oracle (``tests/ilu/_ilut.py``): equal bits, equal
flop counts.
"""

from __future__ import annotations

import numpy as np

from ..resilience import PivotPolicy
from ..sparse import CSRMatrix
from .factors import ILUFactors
from .params import ILUTParams
from .row import PivotRow, eliminate_row, l_row, u_row
from .rowstore import RowsBuilder

__all__ = ["ilut"]


def ilut(
    A: CSRMatrix,
    params: ILUTParams,
    *,
    pivot_policy: PivotPolicy | None = None,
) -> ILUFactors:
    """Compute the ILUT factorization of ``A`` in natural order.

    Every row eliminates the rows before it, read from a list cache
    filled as they finish; L and U are assembled from lists once.

    Parameters
    ----------
    A:
        Square sparse matrix.
    params:
        An :class:`~repro.ilu.params.ILUTParams` bundle (``fill`` = max
        off-diagonal entries kept per row in L and separately in U;
        ``threshold`` = relative drop tolerance, row ``i`` uses
        ``tau_i = threshold * ||a_i||_2``).
    pivot_policy:
        Small/zero-pivot remediation
        (:class:`~repro.resilience.PivotPolicy`).  ``None`` is
        ``PivotPolicy("guard")``: a pivot ``u_ii`` that ends up exactly
        zero (dropped or missing) is replaced by ``tau_i`` (or the
        row-norm if ``tau_i`` is zero) so the factorization remains
        applicable.  ``PivotPolicy("raise")`` raises a typed
        :class:`~repro.resilience.ZeroPivotError` (a
        ``ZeroDivisionError`` subclass) instead.

    Returns
    -------
    ILUFactors
        With identity permutation and a ``stats`` dict containing
        ``flops`` (multiply-adds + divides of the elimination) and
        ``fill_nnz``.
    """
    policy = pivot_policy if pivot_policy is not None else PivotPolicy()
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"ILUT requires a square matrix, got {A.shape}")
    m, t = params.fill, params.threshold
    norms = A.row_norms(ord=2)
    taus, norms = (t * norms).tolist(), norms.tolist()
    indptr, cols, vals = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    pkey = [-1] * n
    pivot_rows: dict[int, PivotRow] = {}
    l_rows, u_rows = RowsBuilder(), RowsBuilder()
    flops = 0
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        ops, _reads, multipliers, rest = eliminate_row(
            cols[lo:hi], vals[lo:hi], taus[i], pkey, pivot_rows
        )
        flops += ops
        l_rows.add_entries(l_row([], multipliers, taus[i], m))
        tail_cols, tail_vals, pivot = pivot_rows[i] = u_row(i, rest, taus[i], m, policy, norms[i])
        pkey[i] = i
        u_rows.add([i, *tail_cols], [pivot, *tail_vals])
    L, U = (CSRMatrix(*rows.flat(), (n, n), check=False) for rows in (l_rows, u_rows))
    return ILUFactors(
        L=L,
        U=U,
        perm=np.arange(n, dtype=np.int64),
        levels=None,
        stats={"flops": flops, "fill_nnz": L.nnz + U.nnz, "m": m, "t": t},
    )
