"""Oracle of the serial ILUT: Saad's full-working-row + nonzero-pointer loop.

``repro.ilu.ilut`` runs Algorithm 3.1 on the scalar row kernel
(``repro.ilu.row``).  This is the classic formulation it replaced — a
dense working row with a nonzero list (``SparseRowAccumulator``, kept
with the other array-formulation pieces in ``_accumulator.py``), a heap
of pivot columns, one numpy call per step — which must produce the same
L, U and flop count bit for bit.  The drop thresholds come from the
library's row norms, so the two differ only in the elimination loop.
"""

import heapq

import numpy as np

from repro.ilu import ILUFactors
from repro.resilience import PivotPolicy
from repro.sparse import COOBuilder

from ._accumulator import SparseRowAccumulator, second_rule


def ilut(A, params, *, pivot_policy=None):
    """ILUT(m, t) in natural order, one accumulator step at a time."""
    policy = pivot_policy if pivot_policy is not None else PivotPolicy()
    n = A.shape[0]
    m, t = params.fill, params.threshold
    norms = A.row_norms(ord=2)
    w = SparseRowAccumulator(n)
    # U rows stored as (cols, vals) with the diagonal first-by-column
    u_rows = []
    l_builder = COOBuilder(n)
    u_builder = COOBuilder(n)
    flops = 0

    for i in range(n):
        cols, vals = A.row(i)
        w.load(cols, vals)
        tau = t * norms[i]

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
            wk = wk / uvals[0]  # diagonal stored first
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
        (lcols, lvals), diag, (ucols, uvals) = second_rule(rcols, rvals, i, tau, m)
        diag = policy.resolve(i, diag, tau, norms[i])
        if lcols.size:
            l_builder.add_batch(np.full(lcols.size, i, dtype=np.int64), lcols, lvals)
        u_builder.add(i, i, diag)
        if ucols.size:
            u_builder.add_batch(np.full(ucols.size, i, dtype=np.int64), ucols, uvals)
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
        stats={"flops": flops, "fill_nnz": L.nnz + U.nnz, "m": m, "t": t},
    )
