"""Level-scheduled triangular solves, in the one summation order.

Every triangular solve in the library sums a row the same way: row
``i`` of a forward sweep is ``y_i - (((0.0 + l_{i,c1} y_{c1}) +
l_{i,c2} y_{c2}) + ...)`` over its stored columns in stored order, and
a backward row is the same expression divided by ``u_ii``.  A row reads
only final values of the rows it depends on, so every schedule that
respects the dependencies computes the same bits, and
``tests/ilu/_trisolve.py`` keeps the row-by-row loop as the reference
oracle.

The library has one solve kernel, :func:`solve_levels`, over *bundles*:
one bundle per dependency level, ``(rows, ec, ev, seg, dv)`` — the
level's rows, their off-diagonal entries flattened in row and storage
order with ``seg`` the entry's row ordinal within the level, and the
gathered diagonal (``None`` on a unit-diagonal forward sweep, which does
not divide).  A level is ``x[rows] = (x[rows] - bincount(seg, ev *
x[ec])) / dv``: ``bincount`` adds its weights in input order into
zeros, which is exactly the left-to-right row sum above.
:func:`level_bundles` cuts any grouping of rows into bundles from one
gather.  The serial applier (:class:`BatchedTriangularSchedule`) runs
the whole factor's levels (:func:`triangular_levels`); the §5 parallel
apply (:mod:`repro.ilu.triangular`) runs one worker's levels of one
region per thunk.

Per-factors analyses — these schedules, and the parallel apply's plan —
are cached per :class:`~repro.ilu.factors.ILUFactors` object (keyed by
identity — the factors dataclass is mutable and unhashable — with a
``weakref.finalize`` hook evicting the entry when the factors are
collected), so repeated preconditioner applications inside a Krylov
solve pay each analysis exactly once.
"""

from __future__ import annotations

import weakref
from collections.abc import Hashable, Sequence
from typing import TYPE_CHECKING, Any, Callable, TypeVar

import numpy as np

from ..resilience import ZeroDiagonalError, ZeroPivotError
from .csr import csr_gather_rows

if TYPE_CHECKING:
    from ..ilu.factors import ILUFactors
    from ..sparse.csr import CSRMatrix

__all__ = [
    "Bundle",
    "triangular_levels",
    "triangular_diagonal",
    "level_bundles",
    "level_values",
    "solve_levels",
    "BatchedTriangularSchedule",
    "cached_analysis",
    "cached_schedules",
    "clear_schedule_cache",
]

T = TypeVar("T")

#: one dependency level: ``(rows, ec, ev, seg, dv)``
Bundle = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, "np.ndarray | None"]


def triangular_levels(
    M: CSRMatrix, *, lower: bool, stage: np.ndarray | None = None
) -> np.ndarray:
    """Dependency level of each row of a triangular matrix.

    For a lower-triangular solve, row ``i`` depends on rows ``j < i``
    with ``M[i, j] != 0``; its level is one more than the max level of
    its dependencies (0 for independent rows).  For an upper solve the
    dependencies are ``j > i`` and rows are processed back-to-front.
    Entries on the other side of the diagonal are ignored.

    With ``stage`` (one label per row) only entries between two rows of
    one stage are dependencies: every other entry reads a value that is
    final before the stage starts, and each stage's levels count from 0.
    """
    n = M.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(M.indptr))
    dep = (M.indices < rows) if lower else (M.indices > rows)
    if stage is not None:
        dep &= stage[M.indices] == stage[rows]
    counts = np.bincount(rows[dep], minlength=n)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    bounds = ptr.tolist()
    cols = M.indices[dep].tolist()
    level = [0] * n
    get = level.__getitem__
    reading = np.flatnonzero(counts)
    for i in (reading if lower else reading[::-1]).tolist():
        level[i] = max(map(get, cols[bounds[i] : bounds[i + 1]])) + 1
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


def level_bundles(
    M: CSRMatrix, rows: np.ndarray, bounds: Sequence[int], diag: np.ndarray | None = None
) -> list[Bundle]:
    """The bundles of solving ``rows``, level ``j`` being
    ``rows[bounds[j]:bounds[j + 1]]``, cut from one gather of their
    entries.  With ``diag`` (a backward sweep) the diagonal entries
    divide and are no dependency; without it nothing divides.  The
    bundles are views of a few flat arrays."""
    rows = np.asarray(rows, dtype=np.int64)
    _, e_col, flat = csr_gather_rows(M, rows)
    e_k = np.repeat(np.arange(rows.size, dtype=np.int64), np.diff(M.indptr)[rows])
    if diag is not None:
        off = e_col != rows[e_k]
        e_col, flat, e_k = e_col[off], flat[off], e_k[off]
    starts = np.asarray(bounds, dtype=np.int64)
    e_bounds = np.searchsorted(e_k, starts)
    # each entry's row ordinal within its level
    e_seg = e_k - np.repeat(starts[:-1], np.diff(e_bounds))
    e_val = M.data[flat]
    dv = None if diag is None else diag[rows]
    rb, eb = starts.tolist(), e_bounds.tolist()
    return [
        (rows[r0:r1], e_col[a:b], e_val[a:b], e_seg[a:b], None if dv is None else dv[r0:r1])
        for r0, r1, a, b in zip(rb[:-1], rb[1:], eb[:-1], eb[1:])
    ]


def level_values(x: np.ndarray, bundle: Bundle) -> np.ndarray:
    """The new values of one level's rows, read from ``x``."""
    rows, ec, ev, seg, dv = bundle
    v = x[rows]
    if ec.size:
        v -= np.bincount(seg, ev * x[ec], minlength=rows.size)
    if dv is not None:
        v /= dv
    return v


def solve_levels(x: np.ndarray, bundles: Sequence[Bundle]) -> None:
    """The solve kernel: each level in order, in place in ``x``."""
    for bundle in bundles:
        x[bundle[0]] = level_values(x, bundle)


def _check_triangle(M: CSRMatrix, lower: bool, unit_diagonal: bool) -> None:
    """Refuse an entry on the far side of the diagonal (or a stored unit
    diagonal): it would read a value the sweep has not produced yet."""
    rows = np.repeat(np.arange(M.shape[0], dtype=np.int64), np.diff(M.indptr))
    wrong = M.indices > rows if lower else M.indices < rows
    if unit_diagonal:
        wrong |= M.indices == rows
    if wrong.any():
        i = int(rows[np.argmax(wrong)])
        side = "lower" if lower else "upper"
        raise ValueError(f"row {i} has an entry outside the {side} triangle")


class BatchedTriangularSchedule:
    """The serial applier: the whole factor's dependency levels
    (:func:`triangular_levels`), each level's rows ascending, as one
    :data:`Bundle` per level for :func:`solve_levels`."""

    def __init__(self, M: CSRMatrix, *, lower: bool, unit_diagonal: bool) -> None:
        n = M.shape[0]
        self.n = n
        self.unit_diagonal = unit_diagonal
        self.diag = None if unit_diagonal else triangular_diagonal(M)
        _check_triangle(M, lower, unit_diagonal)
        self.levels = triangular_levels(M, lower=lower)
        nlevels = int(self.levels.max()) + 1 if n else 0
        lvl_ptr = np.zeros(nlevels + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.levels, minlength=nlevels), out=lvl_ptr[1:])
        order = np.argsort(self.levels, kind="stable")
        self._sweeps = level_bundles(M, order, lvl_ptr.tolist(), self.diag)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.array(b, dtype=np.float64)
        solve_levels(x, self._sweeps)
        return x

    @property
    def num_levels(self) -> int:
        return len(self._sweeps)

    @property
    def level_sizes(self) -> np.ndarray:
        return np.asarray([rows.size for rows, *_ in self._sweeps], dtype=np.int64)


#: id(factors) -> {analysis key -> analysis}
_SCHEDULE_CACHE: dict[int, dict[Hashable, Any]] = {}


def cached_analysis(factors: ILUFactors, name: Hashable, build: Callable[[ILUFactors], T]) -> T:
    """``build(factors)``, computed once per factors object and key.

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
