"""The scalar row kernel: Algorithm 4.1 and its dropping-rule tails on
Python floats.

Wherever the pivots of one thunk can depend on each other — phase 1 and
the §7 partition engine's domains — a row is eliminated on its own, and
pivots reached through fill are followed.  ILUT(m, t) caps every U tail
at ``m`` entries, so at the paper's ``m = 10`` a row's whole elimination
is a few dozen multiply-adds: array calls on ten elements cost more than
the arithmetic they carry, and batching across rows has no width (a
phase-1 pivot chain is longer than a rank has interface rows).  So the
working row is a ``dict[col -> float]``, a finished pivot row is cached
once per thunk as plain lists (:data:`PivotRow`), and arrays are built
once per thunk by the caller (its rows come out of the row store as
lists in one gather and go back as one
:class:`~repro.ilu.rowstore.RowBlock`).  Charge-free and transport-free,
like :mod:`repro.ilu.level`: the functions return operation counts and
the pivots read, and the engine replays charges and tracer declarations
from those.

What fixes the bits (``tests/ilu/test_row_kernel.py`` pins each; the
serial :func:`repro.ilu.ilut` loop is the independent oracle):

* pivots are consumed in ascending ``pkey`` order; the multiplier is
  ``w[k] / pivot``, an update ``x + (-wk) * v``, fresh fill
  ``0.0 + (-wk) * v``;
* a consumed pivot slot is zeroed, not removed, so a later tail landing
  on it neither re-queues the pivot nor loses the value;
* entries equal to ``0.0`` vanish when the row is extracted;
* the L side sums old and new multipliers into zeros (``0.0 + v``, which
  turns a ``-0.0`` into ``+0.0``) only when both sides are non-empty and
  copies otherwise;
* the dropping rules select in ``(-|v|, col)`` order, ties toward the
  lower column, and return column-sorted rows.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from heapq import heapify, heappop, heappush

import numpy as np

from ..resilience import PivotPolicy

__all__ = [
    "Entries",
    "PivotRow",
    "PivotRows",
    "eliminate_row",
    "keep_largest_entries",
    "l_row",
    "reduced_row",
    "u_row",
]

#: a sparse row as ``(col, value)`` pairs, sorted by column unless noted
Entries = list[tuple[int, float]]
#: a factored row as the kernel reads it: ``(tail_cols, tail_vals, pivot)``
PivotRow = tuple[list[int], list[float], float]


class PivotRows(dict):
    """A thunk's pivot-row cache over stored U rows (``u_rows[k]`` as
    arrays, diagonal first — the engine's U store): row ``k`` is
    converted on first use, so a thunk pays only for the pivots its
    rows actually reach."""

    def __init__(self, u_rows: Mapping[int, tuple[np.ndarray, np.ndarray]]) -> None:
        super().__init__()
        self._u_rows = u_rows

    def __missing__(self, k: int) -> PivotRow:
        ucols, uvals = self._u_rows[k]
        row = self[k] = (ucols[1:].tolist(), uvals[1:].tolist(), float(uvals[0]))
        return row


def eliminate_row(
    cols: list[int],
    vals: list[float],
    tau: float,
    pkey: Sequence[int],
    pivot_rows: Mapping[int, PivotRow],
) -> tuple[int, list[int], Entries, Entries]:
    """Algorithm 4.1 with the 1st dropping rule on the row ``(cols, vals)``.

    ``pkey[c] >= 0`` marks column ``c`` as a pivot and gives its place
    in the elimination order (keys are unique per column);
    ``pivot_rows[c]`` is that pivot's factored row.  Returns ``(ops,
    reads, multipliers, rest)``: the operation count, the pivots whose
    row was read (those with a nonzero entry, in elimination order), the
    multipliers that survived the 1st rule (same order) and what is left
    of the row, zeros removed, before any 2nd/3rd-rule dropping.
    """
    n = len(pkey)
    w = dict(zip(cols, vals))
    # min-heap of pending pivots, each encoded ``key * n + column``.  A
    # pivot column is pending or consumed exactly when it is in ``w``, so
    # fill (a column new to ``w``) is the only way to reach a new one
    heap = [pkey[c] * n + c for c in cols if pkey[c] >= 0]
    heapify(heap)
    ops = 0
    reads: list[int] = []
    multipliers: Entries = []
    get = w.get
    while heap:
        k = heappop(heap) % n
        wk = w[k]
        w[k] = 0.0
        if wk == 0.0:
            continue
        reads.append(k)
        tail_cols, tail_vals, pivot = pivot_rows[k]
        wk = wk / pivot
        ops += 1
        if abs(wk) < tau:  # 1st dropping rule
            continue
        multipliers.append((k, wk))
        alpha = -wk
        for c, v in zip(tail_cols, tail_vals):
            x = get(c)
            if x is None:
                w[c] = 0.0 + alpha * v
                if pkey[c] >= 0:  # a pivot reached through fill
                    heappush(heap, pkey[c] * n + c)
            else:
                w[c] = x + alpha * v
        ops += 2 * len(tail_cols)
    rest = [e for e in w.items() if e[1] != 0.0]
    rest.sort()
    return ops, reads, multipliers, rest


def keep_largest_entries(entries: Entries, m: int) -> Entries:
    """The ``m`` entries of largest magnitude of a column-sorted row,
    column-sorted; ties go to the lower column."""
    if m <= 0:
        return []
    if len(entries) <= m:
        return entries
    top = sorted(entries, key=lambda e: (-abs(e[1]), e[0]))[:m]
    top.sort()
    return top


def l_row(old: Entries, multipliers: Entries, tau: float, m: int) -> Entries:
    """The row's L part: its accumulated L row ``old`` merged with the
    fresh ``multipliers`` (any order), thresholded, cut to the ``m``
    largest."""
    new = sorted(multipliers)
    if not old:
        merged = new
    elif not new:
        merged = old
    else:
        acc: dict[int, float] = {}
        for c, v in old + new:
            acc[c] = acc.get(c, 0.0) + v
        merged = sorted(acc.items())
    return keep_largest_entries([e for e in merged if abs(e[1]) >= tau], m)


def _split_diagonal(i: int, rest: Entries, tau: float) -> tuple[float, Entries]:
    """The diagonal value of row ``i`` (``0.0`` when absent) and its
    off-diagonal entries of magnitude at least ``tau``."""
    diag = 0.0
    big: Entries = []
    for e in rest:
        if e[0] == i:
            diag = e[1]
        elif abs(e[1]) >= tau:
            big.append(e)
    return diag, big


def u_row(
    i: int, rest: Entries, tau: float, m: int, policy: PivotPolicy, norm: float
) -> PivotRow:
    """2nd dropping rule, U side, for a row over unfactored columns:
    threshold, keep the ``m`` largest, resolve the pivot."""
    diag, big = _split_diagonal(i, rest, tau)
    kept = keep_largest_entries(big, m)
    pivot = float(policy.resolve(i, diag, tau, norm))
    return [c for c, _ in kept], [v for _, v in kept], pivot


def reduced_row(i: int, rest: Entries, tau: float, cap: int | None) -> Entries:
    """3rd dropping rule for a row over unfactored columns: threshold,
    the optional cap on the row's length, diagonal slot always kept."""
    diag, kept = _split_diagonal(i, rest, tau)
    if cap is not None:
        kept = keep_largest_entries(kept, cap - 1)
    kept.append((i, diag))
    kept.sort()
    return kept
