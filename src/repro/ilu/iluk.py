"""ILU(k): level-of-fill incomplete factorization (static-pattern baseline).

Fill entries propagate up to ``k`` levels (paper §2): the level of a
fill at (i, j) caused by eliminating k is
``lev(i,j) = min(lev(i,j), lev(i,k) + lev(k,j) + 1)`` with original
entries at level 0; positions with level > k are discarded.  The pattern
is computed symbolically first, then a numeric factorization runs on
that fixed pattern — which is what makes ILU(k) colourable/parallel but
magnitude-blind (the weakness threshold-based ILUT addresses).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..sparse import CSRMatrix
from .factors import ILUFactors
from .ilu0 import factor_in_pattern

__all__ = ["iluk", "iluk_symbolic"]


def iluk_symbolic(A: CSRMatrix, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Symbolic ILU(k): per-row (cols, levels) of the kept pattern.

    Row-by-row IKJ symbolic elimination keeping positions with fill
    level <= k.
    """
    n = A.shape[0]
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    # store upper parts (incl diag) of processed rows for updates
    upper: list[tuple[np.ndarray, np.ndarray]] = []
    INF = np.iinfo(np.int64).max // 4
    for i in range(n):
        cols, _ = A.row(i)
        lev: dict[int, int] = {int(c): 0 for c in cols}
        if i not in lev:
            lev[i] = 0  # diagonal position always tracked
        # ascending pivot scan with dynamic fill
        heap = [c for c in lev if c < i]
        heapq.heapify(heap)
        done = -1
        while heap:
            kk = heapq.heappop(heap)
            if kk <= done:
                continue
            done = kk
            lik = lev.get(kk, INF)
            if lik > k:
                continue
            ucols, ulevs = upper[kk]
            for c, lu in zip(ucols, ulevs):
                c = int(c)
                if c == kk:
                    continue
                cand = lik + int(lu) + 1
                cur = lev.get(c, INF)
                if cand < cur:
                    lev[c] = cand
                    if c < i and cur > k >= cand:
                        heapq.heappush(heap, c)
        kept = sorted(c for c, l in lev.items() if l <= k)
        levels = np.asarray([lev[c] for c in kept], dtype=np.int64)
        kept_arr = np.asarray(kept, dtype=np.int64)
        rows.append((kept_arr, levels))
        up = kept_arr >= i
        upper.append((kept_arr[up], levels[up]))
    return rows


def iluk(A: CSRMatrix, k: int, *, diag_guard: bool = True) -> ILUFactors:
    """Compute ILU(k) of ``A`` in natural order: :func:`iluk_symbolic`,
    then the ILU(0) elimination kept to that pattern.

    The pivot switch is ``diag_guard``, as in :func:`~repro.ilu.ilu0.ilu0`
    and for the same reason: its guard substitutes the row norm, not
    :class:`~repro.resilience.PivotPolicy`'s ``tau``."""
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"ILU(k) requires a square matrix, got {A.shape}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    patterns = [cols.tolist() for cols, _ in iluk_symbolic(A, k)]
    L, U, flops = factor_in_pattern(A, patterns, diag_guard=diag_guard)
    return ILUFactors(
        L=L,
        U=U,
        perm=np.arange(A.shape[0], dtype=np.int64),
        stats={"flops": flops, "fill_nnz": L.nnz + U.nnz, "k": k},
    )
