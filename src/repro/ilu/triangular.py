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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..faults import FaultJournal, FaultPlan
from ..machine import (
    CRAY_T3D,
    CommStats,
    MachineModel,
    Simulator,
    entry_transport,
    run_region,
    run_region_by_owner,
)
from ..sparse import CSRMatrix
from .factors import ILUFactors

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


def _cross_rank_receivers(
    M_csc_like: dict[int, set[int]],
    owner: np.ndarray,
    positions: np.ndarray,
) -> dict[tuple[int, int], int]:
    """Words each (src, dst) rank pair exchanges for the given level.

    ``M_csc_like[p]`` is the set of ranks owning rows that reference
    column position ``p``.
    """
    words: dict[tuple[int, int], int] = {}
    for p in positions:
        src = int(owner[p])
        for dst in M_csc_like.get(int(p), ()):  # ranks needing x[p]
            if dst != src:
                key = (src, dst)
                words[key] = words.get(key, 0) + 1
    return words


def _column_consumers(M, owner: np.ndarray) -> dict[int, set[int]]:
    """For each column position, the ranks owning rows that reference it."""
    rows = np.repeat(np.arange(M.shape[0], dtype=np.int64), np.diff(M.indptr))
    nranks = int(owner.max(initial=0)) + 1
    pairs = np.unique(M.indices * nranks + owner[rows])  # one per (column, rank)
    consumers: dict[int, set[int]] = {}
    for c, r in zip((pairs // nranks).tolist(), (pairs % nranks).tolist()):
        consumers.setdefault(c, set()).add(r)
    return consumers


@dataclass
class _Sweep:
    """One substitution direction as the stage accounting sees it."""

    name: str  # message-tag prefix: "fwd" | "bwd"
    M: CSRMatrix  # L (forward) or U (backward, diagonal stored first)
    backward: bool
    row_flops: np.ndarray  # integer-valued charge per row position
    consumers: dict[int, set[int]]  # empty without a transport


def _sweeps(factors: ILUFactors, sim) -> tuple[_Sweep, _Sweep]:
    """The forward (L) and backward (U) sweeps of ``factors``."""
    L, U = factors.L, factors.U
    owner = factors.levels.owner

    def consumers(M: CSRMatrix) -> dict[int, set[int]]:
        return _column_consumers(M, owner) if sim is not None else {}

    # forward: 2 flops per L entry; backward: 2 per off-diagonal U entry
    # plus the division
    lower = _Sweep("fwd", L, False, 2.0 * np.diff(L.indptr), consumers(L))
    upper = _Sweep("bwd", U, True, 2.0 * (np.diff(U.indptr) - 1) + 1.0, consumers(U))
    return lower, upper


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


def _account_interior(sim, levels, sweep: _Sweep, flops_rank: np.ndarray) -> None:
    """Accounting of one interior stage: per-block declarations and one
    charge per rank, then the barrier that closes the stage."""
    tr = getattr(sim, "tracer", None)
    for (s, e) in levels.interior_ranges:
        if s == e:
            continue
        rank = int(levels.owner[s])
        if tr is not None:
            rows = range(e - 1, s - 1, -1) if sweep.backward else range(s, e)
            _declare_rows(tr, sweep, levels.owner, rows)
        fl = float(sweep.row_flops[s:e].sum())
        flops_rank[rank] += fl
        if sim is not None:
            sim.compute(rank, fl)
    if sim is not None:
        sim.barrier()


def _account_level(
    sim, levels, sweep: _Sweep, lvl_idx: int, flops_rank: np.ndarray
) -> None:
    """Accounting of one interface level: declarations in sweep order,
    one charge per participating rank, the exchange of the level's fresh
    values to the ranks whose remaining rows reference them, and the
    level barrier (one of the paper's ``q`` synchronisation points)."""
    tr = getattr(sim, "tracer", None)
    owner = levels.owner
    positions = levels.interface_levels[lvl_idx]
    if tr is not None:
        _declare_rows(tr, sweep, owner, positions[::-1] if sweep.backward else positions)
    pos = np.asarray(positions, dtype=np.int64)
    if pos.size:
        per = np.bincount(owner[pos], weights=sweep.row_flops[pos])
        for rank in np.unique(owner[pos]).tolist():
            flops_rank[rank] += per[rank]
            if sim is not None:
                sim.compute(rank, float(per[rank]))
    if sim is not None:
        words = _cross_rank_receivers(sweep.consumers, owner, positions)
        sim.exchange(
            [(src, dst, None, float(w)) for (src, dst), w in sorted(words.items())],
            tag=(sweep.name, lvl_idx),
        )
        sim.barrier()


def _solve_vectorized(factors: ILUFactors, b: np.ndarray, sim, flops_rank) -> np.ndarray:
    """Vectorized backend of :func:`parallel_triangular_solve`.

    Numerics run through the cached batched level schedules; the
    transport is driven through the same stage accounting as the
    reference path (charges are integer-valued, so batched summation
    reproduces ``modeled_time`` bit for bit), and under a tracer the
    shared-``x`` accesses are declared row by row exactly as the
    reference does — race detection sees the same program.
    """
    from ..kernels.triangular import cached_schedules

    levels = factors.levels
    fwd, bwd = cached_schedules(factors)
    lower, upper = _sweeps(factors, sim)
    nlevels = len(levels.interface_levels)
    y = fwd.solve(b[factors.perm])
    _account_interior(sim, levels, lower, flops_rank)
    for lvl_idx in range(nlevels):
        _account_level(sim, levels, lower, lvl_idx, flops_rank)
    for lvl_idx in range(nlevels - 1, -1, -1):
        _account_level(sim, levels, upper, lvl_idx, flops_rank)
    _account_interior(sim, levels, upper, flops_rank)
    return bwd.solve(y)


def parallel_triangular_solve(
    factors: ILUFactors,
    b: np.ndarray,
    *,
    nranks: int | None = None,
    model: MachineModel = CRAY_T3D,
    transport: str | Simulator | None = "simulator",
    trace: bool = False,
    backend: str | None = None,
    faults: FaultPlan | None = None,
    copy_payloads: bool = False,
    supervision: "SupervisionPolicy | None" = None,
) -> TriangularSolveResult:
    """Apply the preconditioner ``M^{-1} b`` with the two-phase schedule.

    ``b`` and the returned ``x`` are in *original* ordering.  The factors
    must carry a :class:`~repro.ilu.factors.LevelStructure` (i.e. come
    from a parallel factorization).

    With ``backend="vectorized"`` the substitution itself runs through
    the cached batched level schedules
    (:func:`repro.kernels.triangular.cached_schedules`) while the cost
    accounting, messages and (when tracing) shared-access declarations
    follow the reference schedule row for row: ``modeled_time``, ``comm``
    and race-detection results are identical to the reference backend,
    and ``x`` agrees to roundoff.

    ``transport`` selects the execution backend (``"simulator"`` |
    ``"threads"`` | ``"processes"`` | ``"none"`` | a ready
    :class:`~repro.machine.Simulator`).

    ``faults`` arms a :class:`~repro.faults.FaultPlan`: on the simulator
    message-level faults surface as :class:`~repro.faults.MessageLost` /
    :class:`~repro.faults.RankFailure`; on the real transports the
    portable subset (crash / stall / corrupt-result) is injected at the
    worker level and recovered by supervised region retry — tune the
    supervisor with ``supervision=`` (a
    :class:`~repro.machine.SupervisionPolicy`; real transports only).
    The journal and the retry count are returned on the result.

    ``copy_payloads=True`` pickle round-trips every message at post time
    (the serializing-transport debug oracle; any transport but
    ``"none"``) — results are bit-identical.
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
    from ..kernels.backend import VECTORIZED, resolve_backend

    with entry_transport(
        transport,
        nranks,
        model=model,
        trace=trace,
        faults=faults,
        copy_payloads=copy_payloads,
        supervision=supervision,
    ) as sim:
        # Per-rank accumulator instead of a shared nonlocal: every charge
        # is integer-valued, so the final sum is exact and order-independent.
        flops_rank = np.zeros(nranks, dtype=np.float64)
        if resolve_backend(backend) == VECTORIZED:
            x = _solve_vectorized(factors, b, sim, flops_rank)
        else:
            x = _solve_on(factors, b, sim, flops_rank)
        out = np.empty_like(x)
        out[factors.perm] = x
        return TriangularSolveResult(
            x=out, flops=float(flops_rank.sum()), **entry_transport.report(sim)
        )


def _solve_on(factors: ILUFactors, b: np.ndarray, sim, flops_rank) -> np.ndarray:
    """Reference backend of :func:`parallel_triangular_solve`.

    Every sweep stage is a parallel region of pure per-rank thunks
    (read-shared vector, return own entries) whose results the
    coordinator merges in the historical inline order, followed by that
    stage's accounting — bit-identical on every transport.
    """
    levels = factors.levels
    owner = levels.owner
    nranks = flops_rank.size
    L, U = factors.L, factors.U
    lower, upper = _sweeps(factors, sim)

    def interior_stage(vec: np.ndarray, block_solve) -> None:
        """One region over the ranks' interior blocks: each thunk solves
        its own contiguous block against a private copy of the segment."""
        thunks: list = [None] * nranks
        for (s, e) in levels.interior_ranges:
            if s != e:
                thunks[int(owner[s])] = lambda s=s, e=e: block_solve(s, e)
        results = run_region(sim, thunks)
        for (s, e) in levels.interior_ranges:
            if s != e:
                vec[s:e] = results[int(owner[s])]

    # ------------------------------------------------------- forward
    y = b[factors.perm].copy()

    def fwd_interior(s: int, e: int) -> np.ndarray:
        seg = y[s:e].copy()
        for i in range(s, e):
            cols, vals = L.row(i)
            if cols.size:
                # interior L columns stay within the owner's block by
                # construction; gather defensively so an out-of-block
                # column reads the shared vector instead of mis-indexing
                xv = np.empty(cols.size)
                in_blk = cols >= s
                xv[in_blk] = seg[cols[in_blk] - s]
                xv[~in_blk] = y[cols[~in_blk]]
                seg[i - s] -= np.dot(vals, xv)
        return seg

    interior_stage(y, fwd_interior)
    _account_interior(sim, levels, lower, flops_rank)

    def solve_level(vec: np.ndarray, M, positions, backward: bool) -> None:
        """Solve one interface level in place, as parallel sub-rounds.

        The elimination engine's levels are true dependency levels, but
        interface-partitioned factors carry intra-level couplings that
        the historical inline loop resolved sequentially in ``positions``
        order.  Execution here splits the level into dependency
        sub-rounds (each a genuine parallel region); every row still
        reads only *final* dependency values, so the computed entries are
        bit-identical to the inline sweep.  Charges and messages stay at
        the original level granularity — sub-rounds are an execution
        detail, not part of the cost model.
        """
        order = [int(p) for p in (positions[::-1] if backward else positions)]
        seqno = {p: k for k, p in enumerate(order)}
        depth: dict[int, int] = {}
        rounds: list[list[int]] = []
        for p in order:
            cols = M.row(p)[0]
            deps = cols[1:] if backward else cols
            cdepths = [depth[int(c)] for c in deps if int(c) in depth]
            d = (max(cdepths) + 1) if cdepths else 0
            depth[p] = d
            while len(rounds) <= d:
                rounds.append([])
            rounds[d].append(p)

        newvals: dict[int, float] = {}

        def round_rows(_rank: int, rows: list[int]) -> list[tuple[int, float]]:
            out = []
            for p in rows:
                cols, vals = M.row(p)
                deps = cols[1:] if backward else cols
                v = vec[p]
                if deps.size:
                    # a same-level dep earlier in inline order is
                    # final in newvals (strictly smaller depth); one
                    # later in inline order must read the pre-sweep
                    # value, exactly as the inline loop did
                    k = seqno[p]
                    xv = np.array(
                        [
                            newvals[int(c)]
                            if seqno.get(int(c), k) < k
                            else vec[c]
                            for c in deps
                        ],
                        dtype=np.float64,
                    )
                    v -= np.dot(vals[1:] if backward else vals, xv)
                if backward:
                    v /= vals[0]
                out.append((p, v))
            return out

        for rnd in rounds:
            merged = run_region_by_owner(sim, nranks, rnd, owner, round_rows)
            newvals.update((p, v) for p, v in merged.values())
        for p in order:
            vec[p] = newvals[p]

    nlevels = len(levels.interface_levels)
    for lvl_idx in range(nlevels):
        solve_level(y, L, levels.interface_levels[lvl_idx], backward=False)
        _account_level(sim, levels, lower, lvl_idx, flops_rank)

    # ------------------------------------------------------- backward
    x = y
    for lvl_idx in range(nlevels - 1, -1, -1):
        solve_level(x, U, levels.interface_levels[lvl_idx], backward=True)
        _account_level(sim, levels, upper, lvl_idx, flops_rank)

    def bwd_interior(s: int, e: int) -> np.ndarray:
        seg = x[s:e].copy()
        for i in range(e - 1, s - 1, -1):
            cols, vals = U.row(i)
            if cols.size > 1:
                # U rows of the interior block may reference interface
                # columns past the block end — those are final in the
                # shared vector by the time this region runs
                c = cols[1:]
                xv = np.empty(c.size)
                in_blk = c < e
                xv[in_blk] = seg[c[in_blk] - s]
                xv[~in_blk] = x[c[~in_blk]]
                seg[i - s] -= np.dot(vals[1:], xv)
            seg[i - s] /= vals[0]
        return seg

    interior_stage(x, bwd_interior)
    _account_interior(sim, levels, upper, flops_rank)
    return x
