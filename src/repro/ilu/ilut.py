"""Sequential ILUT(m, t) — Saad's dual-threshold incomplete LU.

This is Algorithm 3.1 of the paper, the serial baseline of the
evaluation.  Two implementations sit behind the ``backend`` switch.  The
reference is the classic full-working-row + nonzero-pointer data
structure (:class:`~repro.sparse.SparseRowAccumulator`), one numpy call
per step — slow, literal, the oracle.  ``"vectorized"`` is a loop over
the scalar row kernel (:mod:`repro.ilu.row`), the same functions the
parallel engine's phase 1 runs on every rank's interior block
(:mod:`repro.ilu.elimination`), so "a rank's interior factorization is
the serial ILUT restricted to its block" holds by construction; the
parity suite holds the two to equal bits and equal flop counts.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..kernels.backend import VECTORIZED, resolve_backend
from ..resilience import PivotPolicy
from ..sparse import COOBuilder, CSRMatrix, SparseRowAccumulator
from .dropping import second_rule
from .factors import ILUFactors
from .params import ILUTParams
from .row import PivotRow, eliminate_row, l_row, u_row
from .rowstore import RowsBuilder

__all__ = ["ilut", "ilut_row_norms"]


def ilut_row_norms(A: CSRMatrix) -> np.ndarray:
    """Per-row 2-norms of A, used for the relative drop tolerances.

    Always computed with the reference kernel so the drop thresholds —
    and therefore the factors — are identical under every backend.
    """
    return A.row_norms(ord=2, backend="reference")


def _ilut_rows(
    A: CSRMatrix, m: int, t: float, policy: PivotPolicy
) -> tuple[CSRMatrix, CSRMatrix, int]:
    """ILUT(m, t) in natural order on the scalar row kernel: every row
    eliminates the rows before it, read from a list cache filled as they
    finish; L and U are assembled from lists once.  Returns ``(L, U,
    flops)``, bit for bit the reference loop's."""
    n = A.shape[0]
    norms = ilut_row_norms(A)
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
    return L, U, flops


def ilut(
    A: CSRMatrix,
    params: ILUTParams,
    *,
    diag_guard: bool = True,
    pivot_policy: PivotPolicy | None = None,
    backend: str | None = None,
) -> ILUFactors:
    """Compute the ILUT factorization of ``A`` in natural order.

    Parameters
    ----------
    A:
        Square sparse matrix.
    params:
        An :class:`~repro.ilu.params.ILUTParams` bundle (``fill`` = max
        off-diagonal entries kept per row in L and separately in U;
        ``threshold`` = relative drop tolerance, row ``i`` uses
        ``tau_i = threshold * ||a_i||_2``).
    diag_guard:
        If a pivot ``u_ii`` ends up exactly zero (dropped or missing),
        substitute ``tau_i`` (or the row-norm if ``tau_i`` is zero) so
        the factorization remains applicable.  With ``diag_guard=False``
        a zero pivot raises a typed
        :class:`~repro.resilience.ZeroPivotError` (a
        ``ZeroDivisionError`` subclass).
    pivot_policy:
        Full small/zero-pivot remediation control
        (:class:`~repro.resilience.PivotPolicy`); overrides
        ``diag_guard`` when given.  The default maps ``diag_guard`` onto
        the bit-exact legacy behaviour.
    backend:
        ``"reference"`` (the accumulator oracle), ``"vectorized"`` (the
        row kernel, bit-identical), or ``None`` for the process default.

    Returns
    -------
    ILUFactors
        With identity permutation and a ``stats`` dict containing
        ``flops`` (multiply-adds + divides of the elimination) and
        ``fill_nnz``.
    """
    policy = pivot_policy if pivot_policy is not None else PivotPolicy.from_diag_guard(diag_guard)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"ILUT requires a square matrix, got {A.shape}")

    if resolve_backend(backend) == VECTORIZED:
        L, U, flops = _ilut_rows(A, params.fill, params.threshold, policy)
        return ILUFactors(
            L=L,
            U=U,
            perm=np.arange(n, dtype=np.int64),
            levels=None,
            stats={
                "flops": flops,
                "fill_nnz": L.nnz + U.nnz,
                "m": params.fill,
                "t": params.threshold,
            },
        )

    mm, tt = params.fill, params.threshold
    norms = ilut_row_norms(A)
    w = SparseRowAccumulator(n)
    # U rows stored as (cols, vals) with the diagonal first-by-column
    u_rows: list[tuple[np.ndarray, np.ndarray]] = []
    l_builder = COOBuilder(n)
    u_builder = COOBuilder(n)
    flops = 0

    for i in range(n):
        cols, vals = A.row(i)
        w.load(cols, vals)
        tau = tt * norms[i]

        # min-heap of candidate pivot columns k < i (lazy duplicates)
        heap = [int(c) for c in cols if c < i]
        heapq.heapify(heap)
        done = -1  # last processed k (guards duplicates)
        while heap:
            k = heapq.heappop(heap)
            if k <= done:
                continue
            done = k
            wk = w.get(k)
            if wk == 0.0:
                continue
            ucols, uvals = u_rows[k]
            pivot = uvals[0]  # diagonal stored first
            wk = wk / pivot
            flops += 1
            if abs(wk) < tau:  # 1st dropping rule
                w.drop(k)
                continue
            w.set(k, wk)
            if ucols.size > 1:
                tail_cols = ucols[1:]
                w.axpy(-wk, tail_cols, uvals[1:])
                flops += 2 * int(tail_cols.size)
                for c in tail_cols:
                    if c < i:
                        heapq.heappush(heap, int(c))

        # 2nd dropping rule
        rcols, rvals = w.extract()
        (lcols, lvals), diag, (ucols, uvals) = second_rule(rcols, rvals, i, tau, mm)
        diag = policy.resolve(i, diag, tau, norms[i])
        if lcols.size:
            l_builder.add_batch(np.full(lcols.size, i, dtype=np.int64), lcols, lvals)
        u_builder.add(i, i, diag)
        if ucols.size:
            u_builder.add_batch(np.full(ucols.size, i, dtype=np.int64), ucols, uvals)
        # store U row with diagonal first for the pivot lookup above
        u_rows.append(
            (
                np.concatenate(([i], ucols)).astype(np.int64),
                np.concatenate(([diag], uvals)),
            )
        )
        w.reset()

    L = l_builder.to_csr()
    U = u_builder.to_csr()
    return ILUFactors(
        L=L,
        U=U,
        perm=np.arange(n, dtype=np.int64),
        levels=None,
        stats={"flops": flops, "fill_nnz": L.nnz + U.nnz, "m": mm, "t": tt},
    )
