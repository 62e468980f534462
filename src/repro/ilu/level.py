"""Level-batched reduced-row update: one array pass per independent set.

The rows of an independent set ``I_l`` do not touch each other (paper
§4), so every multiplier a remaining reduced row needs from level ``l``
is known before any arithmetic: eliminating the level from the remaining
rows is a sparse row-block × pivot-block product followed by the 1st and
3rd dropping rules, not one Algorithm 4.1 call per row.  This module is
that product.  It is charge-free and transport-free: it returns the
same :class:`~repro.ilu.rowstore.RowBlock` the scalar thunks return —
flat rows, per-row operation counts, the pivots each row actually read
— and the engine replays charges and tracer declarations from that.

Bit-exact against the scalar row kernel (:mod:`repro.ilu.row`:
``eliminate_row`` + ``l_row`` + ``reduced_row``), which stays the kernel
wherever pivots *can* depend on each other (phase 1, the §7 partition
engine).  It is the MIS engine's only phase-2 update, so it sits beside
the engine rather than in :mod:`repro.kernels` (the CSR and
triangular-solve kernels every layer shares).
What makes it exact rather than close:

* every entry receives its contributions in ascending pivot order, the
  scalar kernel's heap order — tails are added in *rounds*, round ``j``
  applying the ``j``-th surviving pivot of every row at once, and within
  a round each ``(row, col)`` occurs once, so fancy-index ``+=`` is the
  scalar update ``x + alpha*v``;
* fill starts from ``0.0`` (``0.0 + alpha*v``, not ``alpha*v``), entries
  equal to ``0.0`` vanish as they do when the scalar kernel extracts its
  working row, and the diagonal slot is
  always kept, as ``+0.0`` when it cancelled or was never stored;
* the dropping rules are segmented selections with ``keep_largest``'s
  ``(-|v|, col)`` order.

Preconditions (the engine's invariants; the first is checked): no level
pivot appears in another level pivot's U tail; every input row is sorted
by column; an old L row holds no column of this level's pivots.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .rowstore import FlatRows, RowBlock, RowStore, ptr_of

__all__ = ["LevelPivots", "level_pivots", "level_update"]


class LevelPivots(NamedTuple):
    """One level's pivot rows, flattened once per level.

    ``ordinal[c]`` is the place of column ``c`` among the sorted pivots
    (``-1`` for a non-pivot column); ``diag`` and ``tails`` are indexed
    by that ordinal — ``tails`` holds the U rows without their leading
    diagonal.
    """

    ordinal: np.ndarray
    diag: np.ndarray
    tails: FlatRows


def level_pivots(n: int, pivots: np.ndarray, u_rows: RowStore) -> LevelPivots:
    """Build the pivot table of one level from its factored U rows
    (stored diagonal first).

    Raises ``ValueError`` when the pivots are not independent — one of
    them sits in another's U tail, so a multiplier would depend on an
    elimination of the same level and only the scalar kernel is correct.
    """
    pivots = np.sort(np.asarray(pivots, dtype=np.int64))
    ordinal = np.full(n, -1, dtype=np.int64)
    ordinal[pivots] = np.arange(pivots.size, dtype=np.int64)
    ptr, cols, vals = u_rows.gather(pivots)
    head = ptr[:-1]
    tail = np.ones(cols.size, dtype=bool)
    tail[head] = False
    tails = FlatRows(ptr - np.arange(ptr.size, dtype=np.int64), cols[tail], vals[tail])
    dependent = ordinal[tails.cols] >= 0
    if dependent.any():
        raise ValueError(
            f"level pivots are not independent: column {int(tails.cols[dependent][0])} "
            "is a pivot and appears in another pivot's U row"
        )
    return LevelPivots(ordinal, vals[head], tails)


def _rank_in_run(sorted_ids: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal (sorted) ids."""
    return np.arange(sorted_ids.size, dtype=np.int64) - np.searchsorted(sorted_ids, sorted_ids)


def _largest_per_row(row: np.ndarray, val: np.ndarray, m: int) -> np.ndarray:
    """Mask of the entries among the ``m`` largest ``|val|`` of their row.

    ``row`` is sorted and columns ascend within a row, so the stable sort
    breaks magnitude ties toward the lower column — ``keep_largest``.
    """
    order = np.lexsort((-np.abs(val), row))
    top = np.zeros(row.size, dtype=bool)
    top[order[_rank_in_run(row) < m]] = True
    return top


def level_update(
    pivots: LevelPivots,
    rows: np.ndarray,
    reduced: FlatRows,
    l_old: FlatRows,
    tau: np.ndarray,
    m: int,
    reduced_cap: int | None,
) -> RowBlock:
    """Eliminate one level's pivots from a block of reduced rows.

    ``rows[j]`` is the global index (diagonal column) of row ``j``,
    ``reduced`` / ``l_old`` its reduced row and accumulated L row,
    ``tau[j]`` its relative drop tolerance.  ``m`` caps the L rows,
    ``reduced_cap`` (``None``: no cap) the reduced rows.  The block
    holds only the rows that had an entry at a pivot column; the others
    are untouched this level.
    """
    n = pivots.ordinal.size
    nrows = rows.size
    row_ids = np.arange(nrows, dtype=np.int64)
    row_of = np.repeat(row_ids, np.diff(reduced.ptr))
    ordinal = pivots.ordinal[reduced.cols]
    at_pivot = ordinal >= 0
    is_touched = np.bincount(row_of[at_pivot], minlength=nrows) > 0

    # multipliers w_k / u_kk of every (row, pivot) at once; an entry equal
    # to 0.0 costs nothing and reads no U row
    live = at_pivot & (reduced.vals != 0.0)
    p_row, p_col, p_ord = row_of[live], reduced.cols[live], ordinal[live]
    mult = reduced.vals[live] / pivots.diag[p_ord]
    reads = np.bincount(p_row, minlength=nrows)
    # 1st dropping rule: a multiplier below tau is neither stored nor applied
    used = ~(np.abs(mult) < tau[p_row])
    a_row, a_col, a_ord, mult = p_row[used], p_col[used], p_ord[used], mult[used]
    tail_len = np.diff(pivots.tails.ptr)[a_ord]
    ops = reads + 2 * np.bincount(a_row, weights=tail_len, minlength=nrows).astype(np.int64)

    # expand the surviving tails, grouped by round = place of the pivot
    # among its row's surviving pivots
    round_of = _rank_in_run(a_row)
    by_round = np.argsort(round_of, kind="stable")
    e_len = tail_len[by_round]
    e_ptr = ptr_of(e_len)
    src = np.repeat(pivots.tails.ptr[a_ord[by_round]] - e_ptr[:-1], e_len)
    src += np.arange(e_ptr[-1], dtype=np.int64)
    e_key = np.repeat(a_row[by_round], e_len) * n + pivots.tails.cols[src]
    e_add = np.repeat(-mult[by_round], e_len) * pivots.tails.vals[src]
    round_ptr = ptr_of(np.bincount(round_of, weights=tail_len).astype(np.int64))

    # workspace over every (row, col) that can hold a value: the rows'
    # non-pivot entries, the fill, and each touched row's diagonal slot
    stays = is_touched[row_of] & ~at_pivot
    w_key = row_of[stays] * n + reduced.cols[stays]
    touched = np.flatnonzero(is_touched)
    keys, where = np.unique(
        np.concatenate((w_key, e_key, touched * n + rows[touched])), return_inverse=True
    )
    work = np.zeros(keys.size, dtype=np.float64)
    work[where[: w_key.size]] = reduced.vals[stays]
    slot = where[w_key.size : w_key.size + e_key.size]
    for lo, hi in zip(round_ptr[:-1].tolist(), round_ptr[1:].tolist()):
        work[slot[lo:hi]] += e_add[lo:hi]

    # 3rd dropping rule: threshold, optional cap, diagonal always kept
    w_row = keys // n
    w_col = keys - w_row * n
    on_diag = w_col == rows[w_row]
    keep = (work != 0.0) & (np.abs(work) >= tau[w_row]) & ~on_diag
    if reduced_cap is not None:
        idx = np.flatnonzero(keep)
        keep[idx] = _largest_per_row(w_row[idx], work[idx], reduced_cap - 1)
    keep |= on_diag
    work[on_diag] += 0.0  # a diagonal that cancelled to -0.0 is the slot +0.0
    new_reduced = FlatRows(
        ptr_of(np.bincount(w_row[keep], minlength=nrows)[touched]), w_col[keep], work[keep]
    )

    # L side: old L row merged with the new multipliers, threshold, keep m
    old_len = np.diff(l_old.ptr)
    old_row = np.repeat(row_ids, old_len)
    sel = is_touched[old_row]
    old_row = old_row[sel]
    l_row = np.concatenate((old_row, a_row))
    l_col = np.concatenate((l_old.cols[sel], a_col))
    l_val = np.concatenate((l_old.vals[sel], mult))
    l_key = l_row * n + l_col
    order = np.argsort(l_key, kind="stable")
    l_key, l_row, l_col, l_val = l_key[order], l_row[order], l_col[order], l_val[order]
    if np.any(l_key[1:] == l_key[:-1]):
        raise ValueError("an old L row already holds a column of this level's pivots")
    # row.l_row sums into zeros when both sides are non-empty (which
    # turns a -0.0 multiplier into +0.0) and copies otherwise
    both = (old_len > 0) & (np.bincount(a_row, minlength=nrows) > 0)
    l_val = np.where(both[l_row], 0.0 + l_val, l_val)
    big = np.abs(l_val) >= tau[l_row]
    l_row, l_col, l_val = l_row[big], l_col[big], l_val[big]
    top = _largest_per_row(l_row, l_val, m)
    new_l = FlatRows(
        ptr_of(np.bincount(l_row[top], minlength=nrows)[touched]), l_col[top], l_val[top]
    )

    # a 0.0 entry at a pivot column reads nothing, so reads of an
    # untouched row are zero and dropping them keeps ``p_col`` aligned
    return RowBlock(
        rows[touched], "reduced-row", new_l, None, new_reduced,
        ops[touched], ptr_of(reads[touched]), p_col,
    )
