"""The array formulation of Algorithm 4.1's pieces, kept as oracles.

The library eliminates rows on the scalar row kernel
(``repro.ilu.row``).  What it replaced lives here, unchanged, as the
independent implementation the kernel must equal bit for bit: Saad's
full-length working row with a nonzero list (``SparseRowAccumulator``),
``keep_largest`` and the 2nd dropping rule on arrays (``second_rule``),
and ILUM's sum-merge of two sparse rows (``merge_rows``).  Used by the
serial ILUT oracle (``_ilut.py``), ``test_row_kernel.py``'s
``reference_*`` helpers and the static-pattern oracle
(``ilu0_by_accumulator``).
"""

from __future__ import annotations

import numpy as np

from repro.ilu import ILUFactors
from repro.resilience import ZeroPivotError
from repro.sparse import COOBuilder


class SparseRowAccumulator:
    """Full-length working row with a nonzero-position companion list.

    The accumulator is reused across all rows of a factorization: create
    it once with the matrix width, then ``load`` / ``axpy`` / ``extract``
    / ``reset`` per row.  ``reset`` is sparse — it only touches the
    positions that were filled.
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self.n = int(n)
        self.values = np.zeros(self.n, dtype=np.float64)
        # -1 = position empty; otherwise index into self._pattern
        self._in_pattern = np.zeros(self.n, dtype=bool)
        self._pattern: list[int] = []

    # ------------------------------------------------------------------

    def load(self, cols: np.ndarray, vals: np.ndarray) -> None:
        """Sparse copy of a row into the (empty) accumulator."""
        if self._pattern:
            raise RuntimeError("load() on a non-empty accumulator; call reset() first")
        cols = np.asarray(cols, dtype=np.int64)
        self.values[cols] = vals
        self._in_pattern[cols] = True
        self._pattern.extend(int(c) for c in cols)

    def axpy(self, alpha: float, cols: np.ndarray, vals: np.ndarray) -> None:
        """``w[cols] += alpha * vals``, extending the pattern with fill."""
        cols = np.asarray(cols, dtype=np.int64)
        fresh = cols[~self._in_pattern[cols]]
        if fresh.size:
            self._in_pattern[fresh] = True
            self._pattern.extend(int(c) for c in fresh)
        self.values[cols] += alpha * vals

    def set(self, col: int, val: float) -> None:
        """Assign ``w[col] = val`` (adds the position to the pattern)."""
        if not self._in_pattern[col]:
            self._in_pattern[col] = True
            self._pattern.append(int(col))
        self.values[col] = val

    def drop(self, col: int) -> None:
        """Zero out position ``col`` but keep it in the pattern.

        Dropped entries are filtered out at :meth:`extract` time; keeping
        the slot avoids an O(pattern) deletion here.
        """
        self.values[col] = 0.0

    def get(self, col: int) -> float:
        return float(self.values[col])

    def __contains__(self, col: int) -> bool:
        return bool(self._in_pattern[col]) and self.values[col] != 0.0

    @property
    def pattern(self) -> np.ndarray:
        """Current (unsorted) nonzero-candidate positions."""
        return np.asarray(self._pattern, dtype=np.int64)

    def nonzero_pattern(self) -> np.ndarray:
        """Positions whose value is currently nonzero, unsorted."""
        p = self.pattern
        if p.size == 0:
            return p
        return p[self.values[p] != 0.0]

    # ------------------------------------------------------------------

    def extract(self, *, sort: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(cols, vals)`` of the nonzero entries (no reset)."""
        p = self.nonzero_pattern()
        if sort and p.size:
            p = np.sort(p)
        return p, self.values[p].copy()

    def extract_range(
        self, lo: int, hi: int, *, sort: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero entries with column index in ``[lo, hi)``."""
        p = self.nonzero_pattern()
        p = p[(p >= lo) & (p < hi)]
        if sort and p.size:
            p = np.sort(p)
        return p, self.values[p].copy()

    def reset(self) -> None:
        """Sparse O(pattern) reset back to the empty state (line 15)."""
        p = self.pattern
        if p.size:
            self.values[p] = 0.0
            self._in_pattern[p] = False
        self._pattern.clear()

    def __len__(self) -> int:
        return int(self.nonzero_pattern().size)


def keep_largest(
    cols: np.ndarray, vals: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Keep the ``m`` entries of largest magnitude, returned column-sorted.

    Ties are broken toward lower column index (deterministic).
    """
    if m <= 0 or cols.size == 0:
        return cols[:0], vals[:0]
    if cols.size <= m:
        order = np.argsort(cols, kind="stable")
        return cols[order], vals[order]
    # argsort by (-|v|, col) for deterministic selection
    order = np.lexsort((cols, -np.abs(vals)))[:m]
    sel = np.sort(cols[order])
    # re-gather values in column order
    pos = {int(c): float(v) for c, v in zip(cols, vals)}
    return sel, np.asarray([pos[int(c)] for c in sel], dtype=np.float64)


def second_rule(
    cols: np.ndarray,
    vals: np.ndarray,
    i: int,
    tau: float,
    m: int,
) -> tuple[tuple[np.ndarray, np.ndarray], float, tuple[np.ndarray, np.ndarray]]:
    """Apply the 2nd dropping rule to a fully-eliminated row.

    Returns ``((lcols, lvals), diag, (ucols, uvals))`` where the L part
    has columns ``< i`` and the U part columns ``> i``; the diagonal is
    kept regardless of magnitude.
    """
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    diag = 0.0
    on = cols == i
    if np.any(on):
        diag = float(vals[on][0])
    big = np.abs(vals) >= tau
    keep = big & ~on
    kc, kv = cols[keep], vals[keep]
    lmask = kc < i
    lcols, lvals = keep_largest(kc[lmask], kv[lmask], m)
    umask = kc > i
    ucols, uvals = keep_largest(kc[umask], kv[umask], m)
    return (lcols, lvals), diag, (ucols, uvals)


def merge_rows(
    c1: np.ndarray, v1: np.ndarray, c2: np.ndarray, v2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum-merge two sorted sparse rows."""
    if c1.size == 0:
        return c2.copy(), v2.copy()
    if c2.size == 0:
        return c1.copy(), v1.copy()
    cols = np.concatenate([c1, c2])
    vals = np.concatenate([v1, v2])
    order = np.argsort(cols, kind="stable")
    cols, vals = cols[order], vals[order]
    uniq = np.empty(cols.size, dtype=bool)
    uniq[0] = True
    np.not_equal(cols[1:], cols[:-1], out=uniq[1:])
    gid = np.cumsum(uniq) - 1
    out_vals = np.zeros(int(gid[-1]) + 1, dtype=np.float64)
    np.add.at(out_vals, gid, vals)
    return cols[uniq], out_vals


def ilu0_by_accumulator(A, patterns=None, *, diag_guard=True):
    """ILU(0) (``patterns=None``) or the numeric ILU(k) on the pattern
    ``patterns[i]`` of each row, one accumulator step at a time: the
    loop ``repro.ilu.ilu0`` / ``iluk`` ran before the pattern kernel."""
    n = A.shape[0]
    w = SparseRowAccumulator(n)
    u_rows = []
    l_builder = COOBuilder(n)
    u_builder = COOBuilder(n)
    flops = 0
    allowed = np.zeros(n, dtype=bool)
    for i in range(n):
        cols, vals = A.row(i)
        w.load(cols, vals)
        pat_cols = cols if patterns is None else np.asarray(patterns[i], dtype=np.int64)
        allowed[pat_cols] = True
        for k in (int(c) for c in pat_cols if c < i):
            wk = w.get(k)
            if wk == 0.0:
                continue
            ucols, uvals = u_rows[k]
            wk = wk / uvals[0]
            flops += 1
            w.set(k, wk)
            if ucols.size > 1:
                tail = ucols[1:]
                keep = allowed[tail]
                if np.any(keep):
                    w.axpy(-wk, tail[keep], uvals[1:][keep])
                    flops += 2 * int(keep.sum())
        rcols, rvals = w.extract()
        lmask, umask, dmask = rcols < i, rcols > i, rcols == i
        diag = float(rvals[dmask][0]) if np.any(dmask) else 0.0
        if diag == 0.0:
            if not diag_guard:
                raise ZeroPivotError(f"zero pivot at row {i}", row=i, value=0.0)
            norm = float(np.sqrt(np.dot(vals, vals)))
            diag = norm if norm > 0 else 1.0
        l_builder.add_batch(np.full(int(lmask.sum()), i, dtype=np.int64), rcols[lmask], rvals[lmask])
        u_builder.add(i, i, diag)
        u_builder.add_batch(np.full(int(umask.sum()), i, dtype=np.int64), rcols[umask], rvals[umask])
        u_rows.append(
            (
                np.concatenate(([i], rcols[umask])).astype(np.int64),
                np.concatenate(([diag], rvals[umask])),
            )
        )
        allowed[pat_cols] = False
        w.reset()
    L, U = l_builder.to_csr(), u_builder.to_csr()
    return ILUFactors(L=L, U=U, perm=np.arange(n, dtype=np.int64), stats={"flops": flops})
