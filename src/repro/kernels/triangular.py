"""Level-scheduled triangular solves, in the one summation order.

Every triangular solve in the library sums a row the same way: row
``i`` of a forward sweep is ``y_i - (((0.0 + l_{i,c1} y_{c1}) +
l_{i,c2} y_{c2}) + ...)`` over its stored columns in stored order, and
a backward row is the same expression divided by ``u_ii``.  A row reads
only final values of the rows it depends on, so every schedule that
respects the dependencies computes the same bits: the §5 parallel
apply (:mod:`repro.ilu.triangular`, a scalar row kernel per rank and
region) and this module's serial applier agree bit for bit, and
``tests/ilu/_trisolve.py`` keeps the row-by-row loop as the reference
oracle of both.

:func:`triangular_levels` computes the dependency levels (one pass of
the ``max(level[deps]) + 1`` recurrence over the rows as lists), and
:class:`BatchedTriangularSchedule` flattens each level into one bundle
— the level's rows, their off-diagonal entries and each entry's row
ordinal, the diagonal — cut from a single level-sorted gather.  A solve
is then one gather / ``np.bincount`` / scatter per level: ``bincount``
adds its weights in input order into zeros, which is exactly the
left-to-right row sum above.

Per-factors analyses — these schedules, and the parallel apply's plan —
are cached per :class:`~repro.ilu.factors.ILUFactors` object (keyed by
identity — the factors dataclass is mutable and unhashable — with a
``weakref.finalize`` hook evicting the entry when the factors are
collected), so repeated preconditioner applications inside a Krylov
solve pay each analysis exactly once.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Callable, TypeVar

import numpy as np

from ..resilience import ZeroDiagonalError, ZeroPivotError
from .csr import csr_gather_rows

if TYPE_CHECKING:
    from ..ilu.factors import ILUFactors
    from ..sparse.csr import CSRMatrix

__all__ = [
    "triangular_levels",
    "triangular_diagonal",
    "BatchedTriangularSchedule",
    "cached_analysis",
    "cached_schedules",
    "clear_schedule_cache",
]

T = TypeVar("T")


def triangular_levels(M: CSRMatrix, *, lower: bool) -> np.ndarray:
    """Dependency level of each row of a triangular matrix.

    For a lower-triangular solve, row ``i`` depends on rows ``j < i``
    with ``M[i, j] != 0``; its level is one more than the max level of
    its dependencies (0 for independent rows).  For an upper solve the
    dependencies are ``j > i`` and rows are processed back-to-front.
    Entries on the other side of the diagonal are ignored.
    """
    n = M.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(M.indptr))
    dep = (M.indices < rows) if lower else (M.indices > rows)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[dep], minlength=n), out=ptr[1:])
    bounds = ptr.tolist()
    cols = M.indices[dep].tolist()
    level = [0] * n
    get = level.__getitem__
    for i in range(n) if lower else range(n - 1, -1, -1):
        a, b = bounds[i], bounds[i + 1]
        if a != b:
            level[i] = max(map(get, cols[a:b])) + 1
    return np.array(level, dtype=np.int64)


def triangular_diagonal(M: CSRMatrix) -> np.ndarray:
    """The stored diagonal of a non-unit triangular factor.

    Raises :class:`~repro.resilience.ZeroDiagonalError` for a row with
    no diagonal entry and :class:`~repro.resilience.ZeroPivotError` for
    one whose diagonal is ``0.0``: a solve would divide by it.
    """
    n = M.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(M.indptr))
    on = M.indices == rows
    missing = np.flatnonzero(np.bincount(rows[on], minlength=n) == 0)
    if missing.size:
        raise ZeroDiagonalError(f"missing diagonal at row {missing[0]}", row=int(missing[0]))
    diag = np.zeros(n, dtype=np.float64)
    diag[rows[on]] = M.data[on]
    zero = np.flatnonzero(diag == 0.0)
    if zero.size:
        row = int(zero[0])
        raise ZeroPivotError(f"zero pivot in triangular factor (row {row})", row=row, value=0.0)
    return diag


class BatchedTriangularSchedule:
    """Whole-level gather/scatter plan for one triangular factor.

    Each level is stored as ``(rows, ec, ev, seg, dv)``: the level's
    rows (ascending), their off-diagonal entries flattened in row and
    storage order with ``seg`` the entry's row ordinal within the level,
    and (for non-unit factors) the gathered diagonal.  :meth:`solve`
    then runs ``x[rows] = (x[rows] - bincount(seg, ev * x[ec])) / dv``
    once per level.
    """

    def __init__(self, M: CSRMatrix, *, lower: bool, unit_diagonal: bool) -> None:
        n = M.shape[0]
        self.n = n
        self.unit_diagonal = unit_diagonal
        self.diag = None if unit_diagonal else triangular_diagonal(M)
        self.levels = triangular_levels(M, lower=lower)
        nlevels = int(self.levels.max()) + 1 if n else 0

        # one gather of every entry, rows grouped by level (ascending
        # within a level), then per level a slice of each flat array
        order = np.argsort(self.levels, kind="stable")
        lvl_ptr = np.zeros(nlevels + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.levels, minlength=nlevels), out=lvl_ptr[1:])
        ordinal = np.arange(n, dtype=np.int64) - lvl_ptr[self.levels[order]]
        e_row, e_col, flat = csr_gather_rows(M, order)
        # an entry on the far side of the diagonal (or a stored unit
        # diagonal) would read a value the sweep has not produced yet
        wrong = e_col > e_row if lower else e_col < e_row
        if unit_diagonal:
            wrong |= e_col == e_row
        if wrong.any():
            i = int(e_row[np.argmax(wrong)])
            side = "lower" if lower else "upper"
            raise ValueError(f"row {i} has an entry outside the {side} triangle")
        e_seg = np.repeat(ordinal, np.diff(M.indptr)[order])
        if not unit_diagonal:
            off = e_col != e_row
            e_row, e_col, flat, e_seg = e_row[off], e_col[off], flat[off], e_seg[off]
        e_val = M.data[flat]
        e_lvl_ptr = np.zeros(nlevels + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.levels[e_row], minlength=nlevels), out=e_lvl_ptr[1:])
        bounds, e_bounds = lvl_ptr.tolist(), e_lvl_ptr.tolist()
        self._sweeps: list[
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]
        ] = []
        for lev in range(nlevels):
            rows = order[bounds[lev] : bounds[lev + 1]]
            a, b = e_bounds[lev], e_bounds[lev + 1]
            dv = None if self.diag is None else self.diag[rows]
            self._sweeps.append((rows, e_col[a:b], e_val[a:b], e_seg[a:b], dv))

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.array(b, dtype=np.float64)
        for rows, ec, ev, seg, dv in self._sweeps:
            if ec.size:
                sums = np.bincount(seg, ev * x[ec], minlength=rows.size)
                x[rows] = x[rows] - sums if dv is None else (x[rows] - sums) / dv
            elif dv is not None:
                x[rows] /= dv
        return x

    @property
    def num_levels(self) -> int:
        return len(self._sweeps)

    @property
    def level_sizes(self) -> np.ndarray:
        return np.asarray([rows.size for rows, *_ in self._sweeps], dtype=np.int64)


#: id(factors) -> {analysis name -> analysis}
_SCHEDULE_CACHE: dict[int, dict[str, Any]] = {}


def cached_analysis(factors: ILUFactors, name: str, build: Callable[[ILUFactors], T]) -> T:
    """``build(factors)``, computed once per factors object and name.

    Keyed by ``id(factors)``; an entry lives exactly as long as its
    factors object (a ``weakref.finalize`` callback evicts it).  What
    ``build`` returns must not refer to ``factors`` itself, or the
    entry would keep it alive.
    """
    key = id(factors)
    entry = _SCHEDULE_CACHE.get(key)
    if entry is None:
        entry = _SCHEDULE_CACHE[key] = {}
        weakref.finalize(factors, _SCHEDULE_CACHE.pop, key, None)
    hit = entry.get(name)
    if hit is None:
        hit = entry[name] = build(factors)
    return hit


def _build_schedules(
    factors: ILUFactors,
) -> tuple[BatchedTriangularSchedule, BatchedTriangularSchedule]:
    fwd = BatchedTriangularSchedule(factors.L, lower=True, unit_diagonal=True)
    bwd = BatchedTriangularSchedule(factors.U, lower=False, unit_diagonal=False)
    return fwd, bwd


def cached_schedules(
    factors: ILUFactors,
) -> tuple[BatchedTriangularSchedule, BatchedTriangularSchedule]:
    """Forward (L, unit) and backward (U) schedules for one factor object."""
    return cached_analysis(factors, "schedules", _build_schedules)


def clear_schedule_cache() -> None:
    """Drop every cached analysis (tests / memory pressure)."""
    _SCHEDULE_CACHE.clear()
