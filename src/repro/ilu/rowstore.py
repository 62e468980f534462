"""The elimination engine's state: sparse rows in flat append-only buffers.

The paper's reduced matrix ``A_I`` (and L, and U) is one distributed
sparse matrix that every level rewrites a few rows of.  A
:class:`RowStore` holds such a matrix as two growing buffers ``cols`` /
``vals`` plus a per-row ``(start, length)`` index: replacing a row
appends its new entries and repoints the index, nothing is moved, and a
checkpoint is the index arrays plus the buffer length.  The garbage that
leaves behind is bounded by the entries ever written — the engine's
``words_copied`` counter — so there is no compaction.

:class:`FlatRows` is a block of rows back to back, the form the kernels
read and write; :class:`RowBlock` is what one rank's region thunk hands
back to the coordinator — a handful of arrays, whichever kernel ran.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import NamedTuple

import numpy as np

__all__ = ["FlatRows", "RowBlock", "RowStore", "RowsBuilder", "gather_rows", "ptr_of"]


class FlatRows(NamedTuple):
    """Sparse rows back to back: row ``j`` is ``[ptr[j], ptr[j+1])``."""

    ptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def ptr_of(counts: np.ndarray) -> np.ndarray:
    """Row pointers of rows with the given lengths."""
    ptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def gather_rows(
    start: np.ndarray, length: np.ndarray, cols: np.ndarray, vals: np.ndarray, rows: np.ndarray
) -> FlatRows:
    """Rows ``rows`` of a ``(start, length)``-indexed buffer, back to
    back in the given order; a negative length (an absent row) reads as
    empty.  A CSR matrix is such a buffer too."""
    counts = np.maximum(length[rows], 0)
    ptr = ptr_of(counts)
    idx = np.repeat(start[rows] - ptr[:-1], counts)
    idx += np.arange(ptr[-1], dtype=np.int64)
    return FlatRows(ptr, cols[idx], vals[idx])


class RowsBuilder:
    """Rows collected as Python lists by a scalar thunk, turned into
    :class:`FlatRows` once (``int64``/``float64`` even when empty)."""

    def __init__(self) -> None:
        self.counts: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []

    def add(self, cols: list[int], vals: list[float]) -> None:
        self.counts.append(len(cols))
        self.cols += cols
        self.vals += vals

    def add_entries(self, entries: list[tuple[int, float]]) -> None:
        self.add([c for c, _ in entries], [v for _, v in entries])

    def flat(self) -> FlatRows:
        return FlatRows(
            ptr_of(np.array(self.counts, dtype=np.int64)),
            np.array(self.cols, dtype=np.int64),
            np.array(self.vals, dtype=np.float64),
        )


class RowBlock(NamedTuple):
    """One rank's result for one region, in the rank's row order.

    ``source`` names the space each row was read from (``"A-row"`` or
    ``"reduced-row"``).  A block carries ``u_rows`` (diagonal first)
    when its rows were factored and ``reduced`` when they stay in the
    reduced matrix, never both; ``l_rows`` is ``None`` when the region
    does not touch L.  ``ops[j]`` is row ``j``'s operation count and
    ``read_cols[read_ptr[j]:read_ptr[j+1]]`` the pivots whose U row it
    read, in elimination order.  ``skip_empty_l``: a row whose L part is
    empty declares no L write (the §7 domains).
    """

    rows: np.ndarray
    source: str
    l_rows: FlatRows | None
    u_rows: FlatRows | None
    reduced: FlatRows | None
    ops: np.ndarray
    read_ptr: np.ndarray
    read_cols: np.ndarray
    skip_empty_l: bool = False

    def copy_words(self) -> np.ndarray | None:
        """Words moved to rebuild each reduced row (its new reduced and
        L parts) — ``None`` for a block that rebuilds none."""
        if self.reduced is None:
            return None
        return (np.diff(self.reduced.ptr) + np.diff(self.l_rows.ptr)).astype(np.float64)

    def decls(self) -> list[list[tuple[str, str, int]]]:
        """Per row, the shared-object accesses it stands for, in the
        order the row-at-a-time elimination makes them."""
        rows, rp, reads = self.rows.tolist(), self.read_ptr.tolist(), self.read_cols.tolist()
        writes_l = [self.l_rows is not None] * len(rows)
        if self.skip_empty_l:
            writes_l = (np.diff(self.l_rows.ptr) > 0).tolist()
        target = "u-row" if self.u_rows is not None else "reduced-row"
        out = []
        for j, i in enumerate(rows):
            d = [("r", self.source, i)]
            d += [("r", "u-row", k) for k in reads[rp[j] : rp[j + 1]]]
            if writes_l[j]:
                d.append(("w", "l-row", i))
            d.append(("w", target, i))
            out.append(d)
        return out


class RowStore(Mapping):
    """Rows ``0..n-1`` of one sparse matrix, each absent or stored.

    Reads as a ``row -> (cols, vals)`` mapping over the stored rows in
    ascending row order (the arrays are views into the buffers: do not
    write through them).
    """

    def __init__(self, n: int) -> None:
        self.start = np.zeros(n, dtype=np.int64)
        self.length = np.full(n, -1, dtype=np.int64)  # -1: absent
        self.cols = np.empty(0, dtype=np.int64)
        self.vals = np.empty(0, dtype=np.float64)
        self.used = 0

    def put(self, rows: np.ndarray, flat: FlatRows) -> None:
        """Store (or replace) ``rows`` with the rows of ``flat``: one append."""
        end = self.used + flat.cols.size
        if end > self.cols.size:
            room = max(end, 2 * self.cols.size) - self.used
            self.cols = np.concatenate((self.cols[: self.used], np.empty(room, np.int64)))
            self.vals = np.concatenate((self.vals[: self.used], np.empty(room, np.float64)))
        self.cols[self.used : end] = flat.cols
        self.vals[self.used : end] = flat.vals
        self.start[rows] = self.used + flat.ptr[:-1]
        self.length[rows] = np.diff(flat.ptr)
        self.used = end

    def discard(self, rows: np.ndarray) -> None:
        self.length[rows] = -1

    def gather(self, rows: np.ndarray) -> FlatRows:
        """``rows`` back to back, absent ones as empty rows."""
        return gather_rows(self.start, self.length, self.cols, self.vals, rows)

    def checkpoint(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The index and the buffer length: all it takes to come back,
        because stored entries are never overwritten below ``used``."""
        return self.start.copy(), self.length.copy(), self.used

    def restore(self, ckpt: tuple[np.ndarray, np.ndarray, int]) -> None:
        start, length, self.used = ckpt
        self.start, self.length = start.copy(), length.copy()

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= i < self.length.size or self.length[i] < 0:
            raise KeyError(i)
        lo = self.start[i]
        return self.cols[lo : lo + self.length[i]], self.vals[lo : lo + self.length[i]]

    def __iter__(self) -> Iterator[int]:
        return iter(np.flatnonzero(self.length >= 0).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.length >= 0))
