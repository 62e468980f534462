"""Vectorized sparse-accumulator for the ILUT/ILUT* inner elimination.

Drop-in replacement for :class:`repro.sparse.SparseRowAccumulator` with
the same load/axpy/set/drop/get/extract/reset contract and *bit-exact*
semantics, but with the nonzero-pattern companion held in a preallocated
``int64`` array instead of a Python list.  The reference accumulator
spends most of its time converting numpy scalars to Python ints while
extending the pattern list; here pattern growth is a single slice
assignment, so ``load`` and ``axpy`` cost one numpy call each regardless
of fill.

Nothing in the package's own hot loops uses it any more: the parallel
elimination engine, once its caller, eliminates rows with the scalar
kernel in :mod:`repro.ilu.row` on a ``dict``, and
:func:`repro.kernels.ilut.ilut_vectorized` keeps its own dense working
row.  It stays as the public array-backed twin of the reference
accumulator, held to it by ``tests/kernels/test_accumulator_kernels.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VectorizedRowAccumulator"]


class VectorizedRowAccumulator:
    """Full-length working row with an array-backed pattern list.

    A position can appear in the pattern at most once (positions are
    column indices), so a capacity-``n`` pattern array never overflows.
    """

    __slots__ = ("n", "values", "in_pattern", "_pat", "_count")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self.n = int(n)
        self.values = np.zeros(self.n, dtype=np.float64)
        self.in_pattern = np.zeros(self.n, dtype=bool)
        self._pat = np.empty(self.n, dtype=np.int64)
        self._count = 0

    # ------------------------------------------------------------------

    def load(self, cols: np.ndarray, vals: np.ndarray) -> None:
        """Sparse copy of a row into the (empty) accumulator."""
        if self._count:
            raise RuntimeError("load() on a non-empty accumulator; call reset() first")
        cols = np.asarray(cols, dtype=np.int64)
        self.values[cols] = vals
        self.in_pattern[cols] = True
        self._pat[: cols.size] = cols
        self._count = int(cols.size)

    def axpy(self, alpha: float, cols: np.ndarray, vals: np.ndarray) -> None:
        """``w[cols] += alpha * vals``, extending the pattern with fill."""
        cols = np.asarray(cols, dtype=np.int64)
        fresh = cols[~self.in_pattern[cols]]
        if fresh.size:
            self.in_pattern[fresh] = True
            self._pat[self._count : self._count + fresh.size] = fresh
            self._count += int(fresh.size)
        self.values[cols] += alpha * vals

    def set(self, col: int, val: float) -> None:
        """Assign ``w[col] = val`` (adds the position to the pattern)."""
        if not self.in_pattern[col]:
            self.in_pattern[col] = True
            self._pat[self._count] = col
            self._count += 1
        self.values[col] = val

    def drop(self, col: int) -> None:
        """Zero out position ``col`` but keep it in the pattern."""
        self.values[col] = 0.0

    def get(self, col: int) -> float:
        return float(self.values[col])

    def __contains__(self, col: int) -> bool:
        return bool(self.in_pattern[col]) and self.values[col] != 0.0

    @property
    def pattern(self) -> np.ndarray:
        """Current (unsorted) nonzero-candidate positions — a view."""
        return self._pat[: self._count]

    def pattern_array(self) -> np.ndarray:
        """Alias of :attr:`pattern` for hot loops that avoid properties."""
        return self._pat[: self._count]

    def nonzero_pattern(self) -> np.ndarray:
        """Positions whose value is currently nonzero, unsorted."""
        p = self._pat[: self._count]
        if p.size == 0:
            return p.copy()
        return p[self.values[p] != 0.0]

    # ------------------------------------------------------------------

    def extract(self, *, sort: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(cols, vals)`` of the nonzero entries (no reset)."""
        p = self.nonzero_pattern()
        if sort and p.size:
            p.sort()
        return p, self.values[p].copy()

    def extract_range(
        self, lo: int, hi: int, *, sort: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero entries with column index in ``[lo, hi)``."""
        p = self.nonzero_pattern()
        p = p[(p >= lo) & (p < hi)]
        if sort and p.size:
            p.sort()
        return p, self.values[p].copy()

    def reset(self) -> None:
        """Sparse O(pattern) reset back to the empty state."""
        p = self._pat[: self._count]
        if p.size:
            self.values[p] = 0.0
            self.in_pattern[p] = False
        self._count = 0

    def __len__(self) -> int:
        return int(self.nonzero_pattern().size)
