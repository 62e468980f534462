"""Parallel forward/backward substitution (paper §5).

The application of the preconditioner — solving ``(I+L) y = b`` then
``U x = y`` — reuses the exact structure the parallel factorization
imposed (Figure 3):

* **forward**: each rank solves its interior block concurrently (the
  interior L blocks are mutually independent), then the interface
  levels are swept in factorization order; after each level the freshly
  computed ``x`` values are sent to the ranks whose later rows reference
  them, and a barrier separates the levels (the ``q`` implicit
  synchronisation points of the paper);
* **backward**: the same in reverse — interface levels last-to-first,
  then the interior blocks.

The communicated volume is proportional to the number of interface
nodes (like a matvec); what distinguishes it from the matvec is the
``q`` level synchronisations, which is why ILUT* (smaller ``q``)
produces cheaper triangular solves — the effect Table 2 and Figure 6
measure.

**One order, any schedule.**  A row is summed the way
:mod:`repro.kernels.triangular` defines for every solve in the library
— ``y_i - (((0.0 + l_{i,c1} y_{c1}) + l_{i,c2} y_{c2}) + ...)`` in
stored column order, divided by ``u_ii`` on the backward sweep — and
reads only final values of the rows it depends on.  The regions here
(one per interior stage, one per dependency sub-round of an interface
level) therefore compute the serial level applier's bits exactly, on
every transport.  With ``transport="none"`` there is no machine to run
regions on, and the driver runs that serial applier itself.

The schedule is analysed once per factors object into an
:class:`ApplyPlan`, cached beside the serial schedules
(:func:`repro.kernels.triangular.cached_analysis`) and evicted with the
factors: per stage the ``(rank, flops)`` charges, each level's sorted
``(src, dst, words)`` message list, and the rows each rank solves in
each region with their CSR entries as Python lists, listed once per
factors.  A thunk lists the vector entries it reads and runs a scalar
row loop in Python floats, the pattern of :mod:`repro.ilu.row`; the
accounting replays from the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from ..faults import FaultJournal, FaultPlan
from ..kernels.csr import csr_gather_rows
from ..kernels.triangular import cached_analysis, triangular_diagonal
from ..machine import (
    CRAY_T3D,
    CommStats,
    MachineModel,
    Simulator,
    entry_transport,
    run_region,
)
from ..sparse import CSRMatrix
from .factors import ILUFactors, LevelStructure

if TYPE_CHECKING:
    from ..machine.supervision import SupervisionPolicy
    from ..verify.trace import AccessTracer

__all__ = ["TriangularSolveResult", "parallel_triangular_solve"]


@dataclass
class TriangularSolveResult:
    """Solution of one forward+backward substitution on the simulator."""

    x: np.ndarray
    modeled_time: float | None
    comm: CommStats | None
    flops: float
    trace: AccessTracer | None = None
    fault_journal: FaultJournal | None = None
    recoveries: int = 0
    transport: str = "none"


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Batch:
    """The rows one rank solves in one region.

    The thunk works on a local copy of the vector at ``gather``: the
    batch's rows first, in solve order, then every other position they
    read.  ``counts`` is each row's number of dependency entries and
    ``cols``/``vals`` are those entries, row after row in stored order,
    columns renumbered into the copy; ``diag`` is ``u_ii`` on the
    backward sweep and ``1.0`` (an exact no-op divisor) on the forward.
    The four are Python lists, listed once per factors, which is what
    the thunk's scalar loop reads.
    """

    rank: int
    gather: np.ndarray
    counts: list[int]
    cols: list[int]
    vals: list[float]
    diag: list[float]

    @property
    def rows(self) -> np.ndarray:
        return self.gather[: len(self.counts)]


@dataclass(frozen=True)
class _Level:
    """One interface level of one sweep: its dependency sub-rounds (one
    region each), then one charge per owning rank, the exchange of its
    fresh values and the level barrier."""

    positions: np.ndarray
    rounds: list[list[_Batch]]
    charges: list[tuple[int, float]]
    messages: list[tuple[int, int, float]]


@dataclass(frozen=True)
class _Sweep:
    """One substitution direction."""

    name: str  # message-tag prefix: "fwd" | "bwd"
    M: CSRMatrix  # L (forward) or U (backward, diagonal stored first)
    backward: bool
    interior: list[_Batch]  # one region
    #: ``(rank, flops, start, end)`` per non-empty interior block
    interior_charges: list[tuple[int, float, int, int]]
    levels: list[_Level]


@dataclass(frozen=True)
class ApplyPlan:
    """Everything :func:`parallel_triangular_solve` derives from one
    factors object, built once per factors (:func:`_apply_plan`)."""

    fwd: _Sweep
    bwd: _Sweep


def _apply_plan(factors: ILUFactors) -> ApplyPlan:
    return cached_analysis(factors, "apply_plan", _build_plan)


def _build_plan(factors: ILUFactors) -> ApplyPlan:
    L, U, levels = factors.L, factors.U, factors.levels
    # forward: 2 flops per L entry; backward: 2 per off-diagonal U entry
    # plus the division
    fwd = _build_sweep("fwd", L, levels, 2.0 * np.diff(L.indptr), np.ones(factors.n))
    bwd = _build_sweep(
        "bwd", U, levels, 2.0 * (np.diff(U.indptr) - 1) + 1.0, triangular_diagonal(U),
        backward=True,
    )
    return ApplyPlan(fwd, bwd)


def _build_sweep(
    name: str,
    M: CSRMatrix,
    levels: LevelStructure,
    row_flops: np.ndarray,
    diag: np.ndarray,
    *,
    backward: bool = False,
) -> _Sweep:
    owner = np.asarray(levels.owner, dtype=np.int64)
    n = M.shape[0]
    nranks = int(owner.max(initial=0)) + 1
    q = len(levels.interface_levels)
    blocks = [(s, e) for s, e in levels.interior_ranges if s != e]

    # every interface position with its level, sub-round and owner
    pos = np.zeros(0, dtype=np.int64)
    if q:
        pos = np.concatenate(levels.interface_levels).astype(np.int64)
    lvl = np.repeat(np.arange(q, dtype=np.int64), levels.level_sizes())
    level_of = np.full(n, -1, dtype=np.int64)
    level_of[pos] = lvl
    rows_all = np.repeat(np.arange(n, dtype=np.int64), np.diff(M.indptr))
    depth = _subround_depths(rows_all, M.indices, level_of, backward)
    rnd, rank = depth[pos], owner[pos]

    # batches: the interior blocks, then per (level, round, rank) the rows
    order = np.lexsort((pos, rank, rnd, lvl))
    key = np.stack((lvl[order], rnd[order], rank[order]))
    cut = np.flatnonzero(np.any(key[:, 1:] != key[:, :-1], axis=0)) + 1
    bounds = [0, *cut.tolist(), order.size] if order.size else [0]
    groups = [np.arange(s, e, dtype=np.int64) for s, e in blocks]
    groups += [pos[order[a:b]] for a, b in zip(bounds[:-1], bounds[1:])]
    if backward:
        groups = [g[::-1] for g in groups]
    ranks = [int(owner[s]) for s, _ in blocks] + key[2, bounds[:-1]].tolist()
    batches = _batches(M, groups, ranks, diag, backward)

    rounds: list[list[list[_Batch]]] = [[] for _ in range(q)]
    last = (-1, -1)
    for batch, k, d in zip(batches[len(blocks) :], *key[:2, bounds[:-1]].tolist()):
        if (k, d) != last:
            rounds[k].append([])
            last = (k, d)
        rounds[k][-1].append(batch)

    # one charge per (level, owning rank), rank ascending; the flop
    # charges are integers, so their order of summation is immaterial
    cell = lvl * nranks + rank
    flops = np.bincount(cell, weights=row_flops[pos], minlength=q * nranks).tolist()
    present = np.flatnonzero(np.bincount(cell, minlength=q * nranks)).tolist()
    charges: list[list[tuple[int, float]]] = [[] for _ in range(q)]
    for c in present:
        charges[c // nranks].append((c % nranks, flops[c]))

    return _Sweep(
        name=name,
        M=M,
        backward=backward,
        interior=batches[: len(blocks)],
        interior_charges=[
            (int(owner[s]), float(row_flops[s:e].sum()), s, e) for s, e in blocks
        ],
        levels=[
            _Level(np.asarray(p), r, c, m)
            for p, r, c, m in zip(
                levels.interface_levels, rounds, charges,
                _level_messages(rows_all, M.indices, owner, level_of, q, nranks),
            )
        ],
    )


def _subround_depths(
    rows: np.ndarray, cols: np.ndarray, level_of: np.ndarray, backward: bool
) -> np.ndarray:
    """The dependency sub-round of every interface position.

    The elimination engine's levels are independent sets, but the §7
    engine's levels couple their own rows.  A row's sub-round is one
    more than the highest sub-round among the same-level rows it reads
    (0 if none), so a sub-round reads only values final before it
    starts.
    """
    depth = np.zeros(level_of.size, dtype=np.int64)
    intra = (level_of[cols] == level_of[rows]) & (level_of[rows] >= 0) & (cols != rows)
    if not intra.any():
        return depth
    r, c = rows[intra], cols[intra]
    # dependencies precede their readers: ascending forward, descending backward
    order = np.argsort(-r if backward else r, kind="stable")
    d: dict[int, int] = {}
    for i, j in zip(r[order].tolist(), c[order].tolist()):
        v = d.get(j, 0) + 1
        if v > d.get(i, 0):
            d[i] = v
    depth[list(d)] = list(d.values())
    return depth


def _level_messages(
    rows: np.ndarray,
    cols: np.ndarray,
    owner: np.ndarray,
    level_of: np.ndarray,
    q: int,
    nranks: int,
) -> list[list[tuple[int, int, float]]]:
    """Each level's ``(src, dst, words)`` list, ascending ``(src, dst)``.

    One word flows per level column ``c`` and rank ``dst`` owning a row
    that references it, ``dst != owner(c)`` — the ranks whose remaining
    rows need the fresh value.
    """
    at = level_of[cols] >= 0
    pairs = np.unique(cols[at] * nranks + owner[rows[at]])  # (column, consumer rank)
    c, dst = pairs // nranks, pairs % nranks
    src = owner[c]
    cross = src != dst
    triple = (level_of[c[cross]] * nranks + src[cross]) * nranks + dst[cross]
    keys, words = np.unique(triple, return_counts=True)
    out: list[list[tuple[int, int, float]]] = [[] for _ in range(q)]
    for k, w in zip(keys.tolist(), words.tolist()):
        out[k // (nranks * nranks)].append((k // nranks % nranks, k % nranks, float(w)))
    return out


def _batches(
    M: CSRMatrix, groups: list[np.ndarray], ranks: list[int], diag: np.ndarray, backward: bool
) -> list[_Batch]:
    """One :class:`_Batch` per group of rows (in solve order), cut from
    one gather of all their entries."""
    if not groups:
        return []
    n = M.shape[0]
    sizes = np.array([g.size for g in groups], dtype=np.int64)
    rows = np.concatenate(groups)
    gid = np.repeat(np.arange(len(groups), dtype=np.int64), sizes)
    r_ptr = np.zeros(len(groups) + 1, dtype=np.int64)
    np.cumsum(sizes, out=r_ptr[1:])
    e_row, e_col, flat = csr_gather_rows(M, rows)
    e_k = np.repeat(np.arange(rows.size, dtype=np.int64), np.diff(M.indptr)[rows])
    if backward:  # the diagonal divides, it is not a dependency
        off = e_col != e_row
        e_col, flat, e_k = e_col[off], flat[off], e_k[off]
    counts = np.bincount(e_k, minlength=rows.size)
    e_ptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=e_ptr[1:])

    # renumber every column into its group's copy: the group's own rows
    # keep their ordinal, every other column follows them, ascending
    e_gid = gid[e_k]
    row_key = gid * n + rows
    by_key = np.argsort(row_key)
    e_key = e_gid * n + e_col
    at = np.minimum(np.searchsorted(row_key[by_key], e_key), rows.size - 1)
    own = row_key[by_key[at]] == e_key
    local = by_key[at] - r_ptr[e_gid]
    far = ~own
    ext_key = np.unique(e_key[far])
    x_ptr = np.searchsorted(ext_key // n, np.arange(len(groups) + 1, dtype=np.int64))
    local[far] = sizes[e_gid[far]] + np.searchsorted(ext_key, e_key[far]) - x_ptr[e_gid[far]]
    ext_col = ext_key % n
    vals = M.data[flat]
    d = diag[rows]

    out = []
    rb, eb, xb = r_ptr.tolist(), e_ptr.tolist(), x_ptr.tolist()
    for g, rank in enumerate(ranks):
        r0, r1 = rb[g], rb[g + 1]
        a, b = eb[r0], eb[r1]
        gather = np.concatenate((rows[r0:r1], ext_col[xb[g] : xb[g + 1]]))
        out.append(
            _Batch(
                rank, gather, counts[r0:r1].tolist(), local[a:b].tolist(),
                vals[a:b].tolist(), d[r0:r1].tolist(),
            )
        )
    return out


# ---------------------------------------------------------------------------
# numerics: the thunk body and the regions that run it
# ---------------------------------------------------------------------------


def _solve_rows(x: np.ndarray, batch: _Batch) -> np.ndarray:
    """Thunk body: the batch's rows one after the other, each
    ``(y_i - (((0.0 + m_1 y_1) + m_2 y_2) + ...)) / d_i`` in Python
    floats, and their values as an array."""
    y = x[batch.gather].tolist()
    entries = zip(batch.cols, batch.vals)
    for i, (count, d) in enumerate(zip(batch.counts, batch.diag)):
        acc = 0.0
        for c, v in islice(entries, count):
            acc += v * y[c]
        y[i] = (y[i] - acc) / d
    return np.array(y[: len(batch.counts)], dtype=np.float64)


def _solve_region(sim, nranks: int, x: np.ndarray, batches: list[_Batch]) -> None:
    """One parallel region: each rank's thunk reads the shared vector
    and returns its rows' values, which the coordinator stores."""
    thunks: list = [None] * nranks
    for batch in batches:
        thunks[batch.rank] = lambda batch=batch: _solve_rows(x, batch)
    results = run_region(sim, thunks)
    for batch in batches:
        x[batch.rows] = results[batch.rank]


# ---------------------------------------------------------------------------
# accounting, replayed from the plan
# ---------------------------------------------------------------------------


def _declare_rows(tr, sweep: _Sweep, owner: np.ndarray, positions) -> None:
    """Declare the shared-``x`` accesses of solving ``positions`` in
    order: each row reads its dependency columns and writes itself."""
    for p in positions:
        p = int(p)
        cols = sweep.M.row(p)[0]
        deps = cols[1:] if sweep.backward else cols
        if deps.size:
            tr.read_many(int(owner[p]), "x", deps)
        tr.write(int(owner[p]), "x", p)


def _account_interior(sim, owner: np.ndarray, sweep: _Sweep, flops_rank: list[float]) -> None:
    """Accounting of one interior stage: per-block declarations and one
    charge per rank, then the barrier that closes the stage."""
    tr = sim.tracer
    for rank, fl, s, e in sweep.interior_charges:
        if tr is not None:
            rows = range(e - 1, s - 1, -1) if sweep.backward else range(s, e)
            _declare_rows(tr, sweep, owner, rows)
        flops_rank[rank] += fl
        sim.compute(rank, fl)
    sim.barrier()


def _account_level(
    sim, owner: np.ndarray, sweep: _Sweep, lvl_idx: int, flops_rank: list[float]
) -> None:
    """Accounting of one interface level: declarations in sweep order,
    one charge per participating rank, the exchange of the level's fresh
    values to the ranks whose remaining rows reference them, and the
    level barrier (one of the paper's ``q`` synchronisation points)."""
    tr = sim.tracer
    level = sweep.levels[lvl_idx]
    if tr is not None:
        positions = level.positions
        _declare_rows(tr, sweep, owner, positions[::-1] if sweep.backward else positions)
    for rank, fl in level.charges:
        flops_rank[rank] += fl
        sim.compute(rank, fl)
    sim.exchange(level.messages, tag=(sweep.name, lvl_idx))
    sim.barrier()


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def parallel_triangular_solve(
    factors: ILUFactors,
    b: np.ndarray,
    *,
    nranks: int | None = None,
    model: MachineModel = CRAY_T3D,
    transport: str | Simulator | None = "simulator",
    trace: bool = False,
    faults: FaultPlan | None = None,
    supervision: "SupervisionPolicy | None" = None,
) -> TriangularSolveResult:
    """Apply the preconditioner ``M^{-1} b`` with the two-phase schedule.

    ``b`` and the returned ``x`` are in *original* ordering.  The factors
    must carry a :class:`~repro.ilu.factors.LevelStructure` (i.e. come
    from a parallel factorization).

    ``transport`` selects the execution backend (``"simulator"`` |
    ``"threads"`` | ``"processes"`` | ``"none"`` | a ready
    :class:`~repro.machine.Simulator`).  A transport runs the §5
    regions; ``"none"`` has no machine to run them on, so the
    substitution runs on the cached serial level schedules
    (:func:`repro.kernels.triangular.cached_schedules`) — the same
    bits and the same flop count.

    ``faults`` arms a :class:`~repro.faults.FaultPlan`: every transport
    injects crash / stall / corrupt-result at region dispatch and
    recovers by region retry, with the same journal, retry count and
    bits (DESIGN.md §14); on the simulator dropped messages are
    retransmitted, and one lost past every retransmit raises
    :class:`~repro.faults.MessageLost`.  Tune the worker supervisor
    with ``supervision=`` (a :class:`~repro.machine.SupervisionPolicy`;
    real transports only).  The journal and the retry count are
    returned on the result.
    """
    if factors.levels is None:
        raise ValueError(
            "factors carry no level structure; use a parallel factorization "
            "or the sequential solves in repro.sparse.ops"
        )
    owner = factors.levels.owner
    n = factors.n
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"b has shape {b.shape}, expected ({n},)")
    if nranks is None:
        nranks = int(owner.max()) + 1 if owner.size else 1
    with entry_transport(
        transport,
        nranks,
        model=model,
        trace=trace,
        faults=faults,
        supervision=supervision,
    ) as sim:
        if sim is None:
            out = factors.solve(b)
            flops = float(factors.triangular_flops())
        else:
            # Per-rank accumulator instead of a shared nonlocal: every charge
            # is integer-valued, so the final sum is exact and order-independent.
            flops_rank = [0.0] * nranks
            x = _solve_on(factors, b, sim, flops_rank)
            out = np.empty_like(x)
            out[factors.perm] = x
            flops = float(sum(flops_rank))
        return TriangularSolveResult(x=out, flops=flops, **entry_transport.report(sim))


def _solve_on(factors: ILUFactors, b: np.ndarray, sim, flops_rank) -> np.ndarray:
    """The §5 apply on a transport.

    Every interior stage is one parallel region, every interface level
    one region per dependency sub-round (sub-rounds are an execution
    detail: charges and messages stay at level granularity).  Each thunk
    solves its rank's rows of the region on a local copy of what they
    read and returns their values; the coordinator stores them, then
    replays the stage's accounting — bit-identical on every transport.
    """
    plan = _apply_plan(factors)
    owner = factors.levels.owner
    nranks = len(flops_rank)
    x = b[factors.perm]
    _solve_region(sim, nranks, x, plan.fwd.interior)
    _account_interior(sim, owner, plan.fwd, flops_rank)
    nlevels = len(plan.fwd.levels)
    for lvl_idx in range(nlevels):
        for batches in plan.fwd.levels[lvl_idx].rounds:
            _solve_region(sim, nranks, x, batches)
        _account_level(sim, owner, plan.fwd, lvl_idx, flops_rank)
    for lvl_idx in range(nlevels - 1, -1, -1):
        for batches in plan.bwd.levels[lvl_idx].rounds:
            _solve_region(sim, nranks, x, batches)
        _account_level(sim, owner, plan.bwd, lvl_idx, flops_rank)
    _solve_region(sim, nranks, x, plan.bwd.interior)
    _account_interior(sim, owner, plan.bwd, flops_rank)
    return x
