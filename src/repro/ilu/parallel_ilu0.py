"""Parallel ILU(0) via static colouring (paper §3, Figure 1a).

ILU(0) never creates fill, so the sparsity structure of every reduced
matrix is known before any numerics: a single greedy colouring of the
interface graph yields all the level sets ``S_l`` up front.  This module
implements that formulation — the foil against which the paper's
dynamic-MIS ILUT algorithm is defined — using the same two-phase
ordering and the same simulator cost accounting, so the two can be
compared level-for-level (see ``benchmarks/bench_ablation_ilu0.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..decomp import DomainDecomposition, decompose
from ..faults import FaultPlan
from ..graph import Graph, color_classes, greedy_coloring
from ..kernels import csr_gather_rows
from ..machine import (
    CRAY_T3D,
    MachineModel,
    Simulator,
    entry_transport,
    run_region,
    run_region_by_owner,
)
from ..resilience import ZeroPivotError
from ..sparse import COOBuilder, CSRMatrix, SparseRowAccumulator
from .factors import ILUFactors, LevelStructure
from .parallel import ParallelILUResult

if TYPE_CHECKING:
    from ..machine.supervision import SupervisionPolicy

__all__ = ["parallel_ilu0"]


def _interface_coloring(decomp: DomainDecomposition) -> list[np.ndarray]:
    """Colour classes of the interface subgraph (original indices)."""
    iface = decomp.all_interface
    if iface.size == 0:
        return []
    local_of = np.full(decomp.A.shape[0], -1, dtype=np.int64)
    local_of[iface] = np.arange(iface.size, dtype=np.int64)
    xadj = np.zeros(iface.size + 1, dtype=np.int64)
    chunks = []
    for idx, v in enumerate(iface):
        nbrs = decomp.graph.neighbors(int(v))
        mapped = local_of[nbrs]
        mapped = mapped[mapped >= 0]
        chunks.append(mapped)
        xadj[idx + 1] = xadj[idx] + mapped.size
    adjncy = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    g = Graph(xadj, adjncy)
    classes = color_classes(greedy_coloring(g))
    return [iface[c] for c in classes]


def parallel_ilu0(
    A: CSRMatrix,
    nranks: int,
    *,
    model: MachineModel = CRAY_T3D,
    transport: str | Simulator | None = "simulator",
    decomp: DomainDecomposition | None = None,
    method: str = "multilevel",
    seed: int = 0,
    diag_guard: bool = True,
    faults: FaultPlan | None = None,
    supervision: "SupervisionPolicy | None" = None,
) -> ParallelILUResult:
    """Zero-fill incomplete factorization on the simulated machine.

    Same two-phase schedule as :func:`~repro.ilu.parallel.parallel_ilut`
    (interior blocks, then interface levels), but the interface levels
    are the colour classes of the interface graph, computed *before* the
    numeric factorization — the concurrency structure ILU(0) admits and
    ILUT does not.  ``faults`` / ``supervision`` behave as in
    :func:`~repro.ilu.parallel.parallel_ilut`: real transports honour
    the portable fault subset and recover by supervised region retry
    (DESIGN.md §14).
    """
    if decomp is None:
        decomp = decompose(A, nranks, method=method, seed=seed)
    elif decomp.nranks != nranks:
        raise ValueError(
            f"decomp has {decomp.nranks} ranks but nranks={nranks} was requested"
        )
    with entry_transport(
        transport, nranks, model=model, faults=faults, supervision=supervision
    ) as sim:
        factors, classes = _factor_on(A, decomp, sim, diag_guard)
        report = entry_transport.report(sim)
        return ParallelILUResult(
            factors=factors,
            decomp=decomp,
            num_levels=len(classes),
            level_sizes=[int(c.size) for c in classes],
            flops=0.0 if sim is None else report["comm"].total_flops,
            words_copied=0.0,
            **report,
        )


def _factor_on(
    A: CSRMatrix, decomp: DomainDecomposition, sim, diag_guard: bool
) -> tuple[ILUFactors, list[np.ndarray]]:
    """Run the factorization against a resolved transport (or ``None``);
    returns the factors and the interface colour classes."""
    nranks = decomp.nranks
    n = A.shape[0]
    part = decomp.part

    # elimination order: interiors per rank, then interface colour classes
    order_chunks: list[np.ndarray] = []
    interior_ranges: list[tuple[int, int]] = []
    start = 0
    for r in range(nranks):
        rows = decomp.interior_rows(r)
        order_chunks.append(rows)
        interior_ranges.append((start, start + rows.size))
        start += rows.size
    classes = _interface_coloring(decomp)
    interface_levels: list[np.ndarray] = []
    for cls in classes:
        interface_levels.append(np.arange(start, start + cls.size, dtype=np.int64))
        order_chunks.append(cls)
        start += cls.size
    perm = (
        np.concatenate(order_chunks) if order_chunks else np.empty(0, dtype=np.int64)
    )
    pos = np.empty(n, dtype=np.int64)
    pos[perm] = np.arange(n, dtype=np.int64)

    # numeric factorization in that order, zero-fill.  Each parallel
    # region runs pure per-rank thunks (DESIGN.md §13): a thunk factors
    # its rows against thunk-local scratch plus the coordinator's merged
    # u-rows (stable during a region) and returns per-row records; the
    # coordinator applies them in the historical inline order, so the
    # builders, u-rows and charges are bit-identical on every transport.
    norms = A.row_norms(ord=2)
    u_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    l_builder = COOBuilder(n)
    u_builder = COOBuilder(n)

    def factor_rows(rows: list[int]) -> list[tuple]:
        # thunk-local scratch: accumulator, pattern mask, and u-rows
        # factored by this thunk but not yet merged by the coordinator
        w = SparseRowAccumulator(n)
        in_pattern = np.zeros(n, dtype=bool)
        u_new: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def factor_row(i: int):
            cols, vals = A.row(i)
            w.load(cols, vals)
            in_pattern[cols] = True
            ops = 0.0
            pivots = sorted(
                (int(pos[c]), int(c)) for c in cols if pos[c] < pos[i]
            )
            for _, k in pivots:
                wk = w.get(k)
                if wk == 0.0:
                    continue
                ucols, uvals = u_new[k] if k in u_new else u_rows[k]
                wk = wk / uvals[0]
                ops += 1
                w.set(k, wk)
                if ucols.size > 1:
                    tail = ucols[1:]
                    keep = in_pattern[tail]
                    if np.any(keep):
                        w.axpy(-wk, tail[keep], uvals[1:][keep])
                        ops += 2.0 * keep.sum()
            rcols, rvals = w.extract()
            lmask = pos[rcols] < pos[i]
            dmask = rcols == i
            umask = ~lmask & ~dmask
            diag = float(rvals[dmask][0]) if np.any(dmask) else 0.0
            if diag == 0.0:
                if not diag_guard:
                    raise ZeroPivotError(f"zero pivot at row {i}", row=i, value=0.0)
                diag = norms[i] if norms[i] > 0 else 1.0
            l_rec = (
                (pos[rcols[lmask]], rvals[lmask]) if np.any(lmask) else None
            )
            u_rec = (
                (pos[rcols[umask]], rvals[umask]) if np.any(umask) else None
            )
            uc = rcols[umask]
            uo = np.argsort(pos[uc], kind="stable")  # by elimination position
            u_row = (
                np.concatenate(([i], uc[uo])).astype(np.int64),
                np.concatenate(([diag], rvals[umask][uo])),
            )
            u_new[i] = u_row
            in_pattern[cols] = False
            w.reset()
            return (i, l_rec, diag, u_rec, u_row, ops)

        return [factor_row(i) for i in rows]

    def apply_row(rec) -> float:
        i, l_rec, diag, u_rec, u_row, ops = rec
        p_i = int(pos[i])
        if l_rec is not None:
            lc, lv = l_rec
            l_builder.add_batch(np.full(lc.size, p_i, dtype=np.int64), lc, lv)
        u_builder.add(p_i, p_i, diag)
        if u_rec is not None:
            uc, uv = u_rec
            u_builder.add_batch(np.full(uc.size, p_i, dtype=np.int64), uc, uv)
        u_rows[i] = u_row
        return ops

    # phase 1: interiors (independent blocks) + interface prep rows local.
    # Interior pivots stay within the owner's interior block, so a
    # thunk's u_new overlay covers every pivot it needs.
    phase1_thunks: list = [None] * nranks
    for r in range(nranks):
        rows = decomp.interior_rows(r).tolist()
        if rows:
            phase1_thunks[r] = lambda rows=rows: factor_rows(rows)
    phase1_results = run_region(sim, phase1_thunks)
    for r in range(nranks):
        ops = 0.0
        for rec in phase1_results[r] or []:
            ops += apply_row(rec)
        if sim is not None:
            sim.compute(r, ops)
    if sim is not None:
        sim.barrier()

    # phase 2: colour classes in order; u-row exchange per class.  The
    # colouring guarantees no same-class pivots, so class thunks read
    # only coordinator-merged u-rows.
    for lvl_idx, cls in enumerate(classes):
        per_rank_ops: dict[int, float] = {}
        # comm: remaining rows need u_k of earlier classes — but within a
        # class, rows only need *already factored* rows, known statically:
        # rows of this class reference factored interface rows of earlier
        # classes on other ranks.  Charge the per-class exchange.
        if sim is not None:
            # vectorized gather keeps the scalar walk's (row, storage)
            # entry order, so the need accumulation below charges in the
            # exact order the per-row loop used to
            ii, cc, _ = csr_gather_rows(A, np.asarray(cls, dtype=np.int64))
            earlier = (
                (pos[cc] < pos[ii]) & decomp.is_interface[cc] & (part[cc] != part[ii])
            )
            need: dict[tuple[int, int], float] = {}
            for i, c in zip(ii[earlier], cc[earlier]):
                c = int(c)
                nw = u_rows[c][0].size * 2.0 if c in u_rows else 2.0
                need[(int(part[c]), int(part[i]))] = (
                    need.get((int(part[c]), int(part[i])), 0.0) + nw
                )
            sim.exchange(
                [(src, dst, words) for (src, dst), words in sorted(need.items())],
                tag=("ilu0", lvl_idx),
            )
        rec_by_row = run_region_by_owner(
            sim, nranks, cls, part, lambda _rank, rows: factor_rows(rows)
        )
        for i in cls.tolist():
            ops = apply_row(rec_by_row[i])
            r = int(part[i])
            per_rank_ops[r] = per_rank_ops.get(r, 0.0) + ops
        if sim is not None:
            for r, ops in sorted(per_rank_ops.items()):
                sim.compute(r, ops)
            sim.barrier()

    owner = part[perm]
    levels = LevelStructure(
        interior_ranges=interior_ranges,
        interface_levels=interface_levels,
        owner=owner,
    )
    levels.validate(n)
    factors = ILUFactors(
        L=l_builder.to_csr(),
        U=u_builder.to_csr(),
        perm=perm,
        levels=levels,
        stats={"algo": "parallel-ilu0", "num_levels": len(interface_levels)},
    )
    return factors, classes
