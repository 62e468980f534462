"""Alternative interface factorization via recursive partitioning (paper §7).

The paper's conclusions sketch a future-work formulation for *dense*
factorizations, where independent sets become tiny: instead of MIS
levels, compute a p-way partitioning of the interface graph ``A_I``,
factor the rows *internal* to each interface-domain concurrently (they
only depend on same-domain rows), form the second-level reduced matrix
over the new (much smaller) interface, and recurse.

This module implements that scheme as
:class:`InterfacePartitionEngine`, a drop-in replacement for the phase-2
loop of :class:`~repro.ilu.elimination.EliminationEngine`.  Each
recursion round contributes **one** synchronisation level regardless of
how many rows it factors — trading MIS's fine-grained concurrency for
far fewer synchronisations, exactly the trade §7 anticipates for slow
networks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..decomp import DomainDecomposition, decompose
from ..faults import FaultPlan
from ..graph import Graph
from ..machine import CRAY_T3D, MachineModel, Simulator, entry_transport, run_region
from ..partition import boundary_mask, partition_graph_kway
from ..sparse import CSRMatrix
from .elimination import EliminationEngine
from .parallel import ParallelILUResult, result_of
from .params import ILUTParams
from .rowstore import RowBlock

if TYPE_CHECKING:
    from ..machine.supervision import SupervisionPolicy

__all__ = ["InterfacePartitionEngine", "parallel_ilut_partitioned"]


class InterfacePartitionEngine(EliminationEngine):
    """Two-phase ILUT with partition-based interface factorization.

    Phase 1 and the driver loop are inherited unchanged; only the
    per-level step differs.  Phase 2 repeats: partition the
    symmetrised structure of the remaining reduced matrix into (up to)
    ``nranks`` interface-domains; concurrently factor each domain's
    internal rows (sequentially within the domain, respecting intra-
    domain dependencies); reduce the new interface rows; recurse.  When
    the remainder is small or fully coupled, one rank factors it
    sequentially.
    """

    #: remaining-node count below which the tail is factored sequentially
    SEQUENTIAL_CUTOFF = 24

    def _run_level(self, level: int) -> np.ndarray:
        """One recursion round, as one synchronisation level of the
        inherited driver loop (checkpoints, recovery, ``level_hook``)."""
        nranks = self.decomp.nranks
        remaining = self.remaining
        domains = (
            self._split_interface(remaining)
            if remaining.size > self.SEQUENTIAL_CUTOFF
            else []
        )
        if not any(d.size for d in domains):
            # small or fully coupled remainder: no concurrency
            # extractable, one rank finishes it serially
            blocks: list = [None] * nranks
            blocks[int(self.decomp.part[remaining[0]])] = self._compute_domain(remaining)
            self._merge_blocks(blocks)
            factored = remaining
        else:
            # one parallel region: domain d's internal rows are
            # factored by rank d (at most nranks domains), all
            # concurrently — domains are internally closed, so
            # thunks never cross-read
            thunks: list = [None] * nranks
            for rank, dom in enumerate(domains):
                if dom.size:
                    thunks[rank] = lambda dom=dom: self._compute_domain(dom)
            self._merge_blocks(run_region(self.sim, thunks))
            factored = np.concatenate([d for d in domains if d.size])
            pkey = self._pivot_keys(factored, self.pos[factored])
            self._exchange_level_rows(pkey, "ipart")
            self._update_remaining(pkey)
        self._barrier()
        return factored

    # ------------------------------------------------------------------

    def _split_interface(self, remaining: np.ndarray) -> list[np.ndarray]:
        """Partition the remaining reduced graph; return per-domain
        *internal* node arrays (nodes with no cross-domain coupling)."""
        nloc = remaining.size
        # symmetrised structure of the reduced matrix
        src, dst = self._reduced_structure(remaining)
        edges = np.unique(np.concatenate((src * nloc + dst, dst * nloc + src)))
        graph = Graph.from_edges(nloc, edges // nloc, edges % nloc)
        nparts = min(self.decomp.nranks, max(2, nloc // 8))
        part = partition_graph_kway(graph, nparts, seed=self.seed + 7).part
        internal = ~boundary_mask(graph, part)
        # ``remaining`` is ascending, so each domain's rows are too
        return [remaining[(part == d) & internal] for d in range(nparts)]

    def _compute_domain(self, nodes: np.ndarray) -> RowBlock:
        """Pure thunk body: factor one interface-domain's internal rows,
        sequentially in ``nodes`` order.

        Intra-domain pivots are the rows this thunk has already
        factored, ordered by a thunk-local elimination position —
        order-isomorphic to the global positions the merge will assign —
        and read from a thunk-local pivot-row cache.  The U part is
        everything left of a row (all unfactored columns).
        """
        return self._eliminate_rows(nodes, "reduced-row", None)


def parallel_ilut_partitioned(
    A: CSRMatrix,
    params: ILUTParams,
    nranks: int,
    *,
    reduced_cap: int | None = None,
    model: MachineModel = CRAY_T3D,
    transport: str | Simulator | None = "simulator",
    decomp: DomainDecomposition | None = None,
    method: str = "multilevel",
    seed: int = 0,
    trace: bool = False,
    faults: FaultPlan | None = None,
    supervision: "SupervisionPolicy | None" = None,
) -> ParallelILUResult:
    """Parallel ILUT with the §7 partition-based interface factorization.

    Same calling convention and keywords as
    :func:`repro.ilu.parallel.parallel_ilut` (``reduced_cap`` governs
    the 3rd rule; a set ``params.k`` is ignored); returns a
    :class:`~repro.ilu.parallel.ParallelILUResult`.  A ``faults=`` plan
    turns per-round checkpointing on, as it does there.
    """
    if decomp is None:
        decomp = decompose(A, nranks, method=method, seed=seed)
    with entry_transport(
        transport, nranks, model=model, trace=trace, faults=faults, supervision=supervision
    ) as sim:
        outcome = InterfacePartitionEngine(
            decomp,
            params.fill,
            params.threshold,
            reduced_cap=reduced_cap,
            sim=sim,
            seed=seed,
            checkpoint=faults is not None,
        ).run()
        return result_of(outcome, decomp, sim)
