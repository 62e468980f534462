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

from ..decomp import DomainDecomposition, decomposition_for
from ..faults import FaultPlan
from ..graph import Graph, color_classes, greedy_coloring
from ..kernels import csr_gather_rows
from ..machine import CRAY_T3D, MachineModel, Simulator, entry_transport, run_region
from ..resilience import ZeroPivotError
from ..sparse import CSRMatrix
from .factors import ILUFactors, LevelStructure
from .parallel import ParallelILUResult
from .row import PivotRows, eliminate_in_pattern, split_at_diagonal
from .rowstore import FlatRows, RowsBuilder, RowStore, permuted_csr

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
    :func:`~repro.ilu.parallel.parallel_ilut`: every transport reads
    crash / stall / corrupt-result at region dispatch and recovers by
    region retry (DESIGN.md §14).  The pivot switch is ``diag_guard``, as
    in :func:`~repro.ilu.ilu0.ilu0` and for the same reason: its guard
    substitutes the row norm, not :class:`~repro.resilience.PivotPolicy`'s
    ``tau``.
    """
    decomp = decomposition_for(A, nranks, decomp, method=method, seed=seed)
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

    # numeric factorization in that order, zero-fill, on the pattern row
    # kernel.  Each parallel region runs pure per-rank thunks (DESIGN.md
    # §13): a thunk factors its rows against thunk-local pivot rows or
    # the coordinator's U store (stable during a region) and returns
    # them as flat rows; the coordinator stores them and charges each
    # rank's operation count, rank by rank, so the factors and charges
    # are bit-identical on every transport.
    norms = A.row_norms(ord=2).tolist()
    indptr, a_cols, a_vals = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    pos_of = pos.tolist()
    # L rows and U rows (diagonal first) in original indices; ``pkey`` is
    # the elimination position of every stored row, -1 before
    l_rows, u_rows = RowStore(n), RowStore(n)
    pkey = [-1] * n

    def factor_rows(rows: list[int], chain: bool) -> tuple[FlatRows, FlatRows, list[int]]:
        """Pure thunk body: ILU(0) of ``rows``, one after the other —
        ``(L rows, U rows, per-row operation counts)``.  With ``chain``
        (a rank's interior block) each row is a pivot of the rows after
        it, read from a thunk-local cache; otherwise (a colour class)
        the pivots are the stored rows only."""
        keys, pivot_rows = ([-1] * n, {}) if chain else (pkey, PivotRows(u_rows))
        l_out, u_out = RowsBuilder(), RowsBuilder()
        ops_out: list[int] = []
        for i in rows:
            lo, hi = indptr[i], indptr[i + 1]
            row_cols = a_cols[lo:hi]
            ops, row = eliminate_in_pattern(row_cols, a_vals[lo:hi], row_cols, keys, pivot_rows)
            lower, diag, tail_cols, tail_vals = split_at_diagonal(i, row, pos_of)
            if diag == 0.0:
                if not diag_guard:
                    raise ZeroPivotError(f"zero pivot at row {i}", row=i, value=0.0)
                diag = norms[i] if norms[i] > 0 else 1.0
            l_out.add_entries(lower)
            u_out.add([i, *tail_cols], [diag, *tail_vals])
            ops_out.append(ops)
            if chain:
                pivot_rows[i] = (tail_cols, tail_vals, diag)
                keys[i] = pos_of[i]
        return l_out.flat(), u_out.flat(), ops_out

    def store(rows: list[int], block: tuple[FlatRows, FlatRows, list[int]]) -> float:
        """Store one thunk's rows; returns its operation count."""
        l_flat, u_flat, ops = block
        rows_arr = np.array(rows, dtype=np.int64)
        l_rows.put(rows_arr, l_flat)
        u_rows.put(rows_arr, u_flat)
        for i in rows:
            pkey[i] = pos_of[i]
        return sum(ops, 0.0)

    # phase 1: interiors (independent blocks) + interface prep rows local.
    # Interior pivots stay within the owner's interior block, so a
    # thunk's own rows cover every pivot it needs.
    interiors = [decomp.interior_rows(r).tolist() for r in range(nranks)]
    phase1_thunks: list = [
        (lambda rows=rows: factor_rows(rows, True)) if rows else None for rows in interiors
    ]
    phase1_results = run_region(sim, phase1_thunks)
    for r in range(nranks):
        ops = 0.0 if phase1_results[r] is None else store(interiors[r], phase1_results[r])
        if sim is not None:
            sim.compute(r, ops)
    if sim is not None:
        sim.barrier()

    # phase 2: colour classes in order; u-row exchange per class.  The
    # colouring guarantees no same-class pivots, so class thunks read
    # only coordinator-stored u-rows.
    for lvl_idx, cls in enumerate(classes):
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
                nw = int(u_rows.length[c]) * 2.0
                need[(int(part[c]), int(part[i]))] = (
                    need.get((int(part[c]), int(part[i])), 0.0) + nw
                )
            sim.exchange(
                [(src, dst, words) for (src, dst), words in sorted(need.items())],
                tag=("ilu0", lvl_idx),
            )
        # one thunk per rank owning rows of the class, rows in class order
        mine = [cls[part[cls] == r].tolist() for r in range(nranks)]
        blocks = run_region(
            sim, [(lambda rows=rows: factor_rows(rows, False)) if rows else None for rows in mine]
        )
        per_rank_ops = {
            r: store(mine[r], block) for r, block in enumerate(blocks) if block is not None
        }
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
    every = np.arange(n, dtype=np.int64)
    factors = ILUFactors(
        L=permuted_csr(l_rows.gather(every), pos),
        U=permuted_csr(u_rows.gather(every), pos),
        perm=perm,
        levels=levels,
        stats={"algo": "parallel-ilu0", "num_levels": len(interface_levels)},
    )
    return factors, classes
