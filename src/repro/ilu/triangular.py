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

**One kernel, one body per worker.**  A region's rows are solved on
the library's one triangular kernel,
:func:`~repro.kernels.triangular.solve_levels`: one ``np.bincount`` per
dependency level, each row summed left to right from ``0.0`` in stored
order.  A row reads only final values, so every transport computes the
serial applier's bits.  The regions are one per interior stage and one
per dependency sub-round of an interface level.  Like the elimination
engine's phase-2 regions, a region runs one thunk body per *worker* of
the transport (:attr:`~repro.machine.Simulator.workers`) over the rows
its ranks own: the lowest such rank's thunk runs it and the worker's
other ranks with rows get one that returns ``None``, so ``pardo`` sees
the active ranks of one body per rank — faults, journals and retries
alike.  The simulator is one worker, so its regions are one kernel call
over every rank's rows.  With ``transport="none"`` there is no machine to run
regions on, and the driver runs the serial applier itself.

The schedule is analysed once per factors object and worker layout
into an :class:`ApplyPlan`, cached beside the serial schedules
(:func:`repro.kernels.triangular.cached_analysis`) and evicted with the
factors: per stage the ``(rank, flops)`` charges, each level's sorted
``(src, dst, words)`` message list, and per region and worker the
kernel's level bundles.  Levels are local to the region (an entry that
points outside it reads a final value); a sub-round's rows are
independent, so there they are one bundle.  The accounting replays
from the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from ..faults import FaultJournal, FaultPlan
from ..kernels.triangular import (
    Bundle,
    cached_analysis,
    level_bundles,
    level_values,
    solve_levels,
    triangular_diagonal,
    triangular_levels,
)
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
class _Body:
    """One worker's share of one region: its ranks that hold rows there,
    the lead first, and the level bundles of those rows.  ``rows`` is
    every bundle's rows in bundle order, which is the order of the values
    the lead thunk returns."""

    ranks: tuple[int, ...]
    rows: np.ndarray
    bundles: list[Bundle]


@dataclass(frozen=True)
class _Level:
    """One interface level of one sweep: its dependency sub-rounds (one
    region each), then one charge per owning rank, the exchange of its
    fresh values and the level barrier."""

    positions: np.ndarray
    rounds: list[list[_Body]]
    charges: list[tuple[int, float]]
    messages: list[tuple[int, int, float]]


@dataclass(frozen=True)
class _Sweep:
    """One substitution direction."""

    name: str  # message-tag prefix: "fwd" | "bwd"
    M: CSRMatrix  # L (forward) or U (backward, diagonal stored first)
    backward: bool
    interior: list[_Body]  # one region
    #: ``(rank, flops, start, end)`` per non-empty interior block
    interior_charges: list[tuple[int, float, int, int]]
    levels: list[_Level]


@dataclass(frozen=True)
class ApplyPlan:
    """Everything :func:`parallel_triangular_solve` derives from one
    factors object for one worker layout (:func:`_apply_plan`)."""

    fwd: _Sweep
    bwd: _Sweep


def _apply_plan(factors: ILUFactors, workers: tuple[tuple[int, ...], ...]) -> ApplyPlan:
    return cached_analysis(factors, ("apply_plan", workers), partial(_build_plan, workers=workers))


def _build_plan(factors: ILUFactors, workers: tuple[tuple[int, ...], ...]) -> ApplyPlan:
    L, U, levels = factors.L, factors.U, factors.levels
    # forward: 2 flops per L entry; backward: 2 per off-diagonal U entry
    # plus the division
    fwd = _build_sweep("fwd", L, levels, workers, 2.0 * np.diff(L.indptr), None)
    bwd = _build_sweep(
        "bwd", U, levels, workers, 2.0 * (np.diff(U.indptr) - 1) + 1.0, triangular_diagonal(U),
    )
    return ApplyPlan(fwd, bwd)


def _build_sweep(
    name: str,
    M: CSRMatrix,
    levels: LevelStructure,
    workers: tuple[tuple[int, ...], ...],
    row_flops: np.ndarray,
    diag: np.ndarray | None,
) -> _Sweep:
    backward = diag is not None
    owner = np.asarray(levels.owner, dtype=np.int64)
    n = M.shape[0]
    nranks = int(owner.max(initial=0)) + 1
    q = len(levels.interface_levels)
    blocks = [(s, e) for s, e in levels.interior_ranges if s != e]

    # every interface position with its level and owner; the interior is
    # stage -1
    pos = np.zeros(0, dtype=np.int64)
    if q:
        pos = np.concatenate(levels.interface_levels).astype(np.int64)
    lvl = np.repeat(np.arange(q, dtype=np.int64), levels.level_sizes())
    level_of = np.full(n, -1, dtype=np.int64)
    level_of[pos] = lvl
    rows_all = np.repeat(np.arange(n, dtype=np.int64), np.diff(M.indptr))
    # each row's level within its stage: the interior region's levels,
    # and an interface level's dependency sub-rounds (the §7 engine's
    # levels couple their own rows)
    depth = triangular_levels(M, lower=not backward, stage=level_of)

    # one body per region and worker, each of its levels one bundle,
    # rows ascending: a region is the interior (level -1, its depths
    # the bundles) or one sub-round of one level
    worker_of = np.empty(sum(map(len, workers)), dtype=np.int64)
    for w, ranks in enumerate(workers):
        worker_of[list(ranks)] = w
    rnd = np.where(level_of >= 0, depth, 0)
    worker = worker_of[owner]
    order = np.lexsort((depth, worker, rnd, level_of))
    key = np.stack((level_of, rnd, worker, depth))[:, order]
    new_body = np.ones(n, dtype=bool)
    new_body[1:] = np.any(key[:3, 1:] != key[:3, :-1], axis=0)
    new_level = new_body.copy()
    new_level[1:] |= key[3, 1:] != key[3, :-1]
    body_at, level_at = np.flatnonzero(new_body), np.flatnonzero(new_level)
    bundles = level_bundles(M, order, [*level_at.tolist(), n], diag)
    # each body's ranks with rows, ascending
    held = np.unique((np.cumsum(new_body) - 1) * nranks + owner[order])
    held_at = np.searchsorted(held // nranks, np.arange(body_at.size + 1)).tolist()
    held_rank = (held % nranks).tolist()

    interior: list[_Body] = []
    rounds: list[list[list[_Body]]] = [[] for _ in range(q)]
    row_at = [*body_at.tolist(), n]
    bundle_at = [*np.searchsorted(level_at, body_at).tolist(), len(bundles)]
    for j, (k, d) in enumerate(key[:2, body_at].T.tolist()):
        body = _Body(
            tuple(held_rank[held_at[j] : held_at[j + 1]]),
            order[row_at[j] : row_at[j + 1]],
            bundles[bundle_at[j] : bundle_at[j + 1]],
        )
        if k < 0:
            interior.append(body)
            continue
        if len(rounds[k]) == d:  # the sub-round's first body
            rounds[k].append([])
        rounds[k][d].append(body)

    # one charge per (level, owning rank), rank ascending; the flop
    # charges are integers, so their order of summation is immaterial
    cell = lvl * nranks + owner[pos]
    flops = np.bincount(cell, weights=row_flops[pos], minlength=q * nranks).tolist()
    present = np.flatnonzero(np.bincount(cell, minlength=q * nranks)).tolist()
    charges: list[list[tuple[int, float]]] = [[] for _ in range(q)]
    for c in present:
        charges[c // nranks].append((c % nranks, flops[c]))

    return _Sweep(
        name=name,
        M=M,
        backward=backward,
        interior=interior,
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


# ---------------------------------------------------------------------------
# numerics: the thunk body and the regions that run it
# ---------------------------------------------------------------------------


def _solve_body(x: np.ndarray, body: _Body) -> np.ndarray:
    """Thunk body: the values of one worker's rows of one region.  One
    level reads ``x`` directly; several run on a copy, since a thunk
    writes nothing shared."""
    if len(body.bundles) == 1:
        return level_values(x, body.bundles[0])
    y = x.copy()
    solve_levels(y, body.bundles)
    return y[body.rows]


def _no_rows() -> None:
    """The thunk of a rank whose rows run in its worker's lead thunk."""


def _solve_region(sim, nranks: int, x: np.ndarray, region: list[_Body]) -> None:
    """One parallel region: each worker's lead thunk reads the shared
    vector and returns its rows' values, which the coordinator stores."""
    thunks: list = [None] * nranks
    for body in region:
        lead, *rest = body.ranks
        thunks[lead] = lambda body=body: _solve_body(x, body)
        for r in rest:
            thunks[r] = _no_rows
    results = run_region(sim, thunks)
    for body in region:
        x[body.rows] = results[body.ranks[0]]


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
    detail: charges and messages stay at level granularity).  Each
    worker's thunk solves its ranks' rows of the region on the level
    kernel and returns their values; the coordinator stores them, then
    replays the stage's accounting — bit-identical on every transport.
    """
    plan = _apply_plan(factors, sim.workers)
    owner = factors.levels.owner
    nranks = len(flops_rank)
    x = b[factors.perm]
    _solve_region(sim, nranks, x, plan.fwd.interior)
    _account_interior(sim, owner, plan.fwd, flops_rank)
    nlevels = len(plan.fwd.levels)
    for lvl_idx in range(nlevels):
        for region in plan.fwd.levels[lvl_idx].rounds:
            _solve_region(sim, nranks, x, region)
        _account_level(sim, owner, plan.fwd, lvl_idx, flops_rank)
    for lvl_idx in range(nlevels - 1, -1, -1):
        for region in plan.bwd.levels[lvl_idx].rounds:
            _solve_region(sim, nranks, x, region)
        _account_level(sim, owner, plan.bwd, lvl_idx, flops_rank)
    _solve_region(sim, nranks, x, plan.bwd.interior)
    _account_interior(sim, owner, plan.bwd, flops_rank)
    return x
