"""Public API for the parallel ILUT / ILUT* factorizations.

``parallel_ilut`` runs the two-phase elimination of the paper on a
simulated ``p``-processor machine — ILUT, or ILUT* when ``params.k`` is
set (``parallel_ilut_star`` is the same call under the paper's name) —
and returns the factors together with the modelled time, communication
statistics and the independent-set level structure (the paper's ``q``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..decomp import DomainDecomposition, decomposition_for
from ..faults import FaultJournal, FaultPlan
from ..machine import (
    CRAY_T3D,
    CommStats,
    MachineModel,
    Simulator,
    entry_transport,
)
from ..resilience import PivotPolicy
from ..sparse import CSRMatrix
from .elimination import EliminationEngine, EliminationOutcome
from .factors import ILUFactors
from .params import ILUTParams

if TYPE_CHECKING:
    from ..machine.supervision import SupervisionPolicy
    from ..verify.trace import AccessTracer

__all__ = ["ParallelILUResult", "parallel_ilut", "parallel_ilut_star"]


@dataclass
class ParallelILUResult:
    """Result of a simulated parallel incomplete factorization.

    Attributes
    ----------
    factors:
        The L/U factors in elimination order, with level structure.
    decomp:
        The domain decomposition used.
    num_levels:
        Number of independent sets ``q`` needed for the interface rows.
    level_sizes:
        Size of each independent set.
    modeled_time:
        Seconds on the modelled machine — the same number on every
        transport (``None`` with ``transport="none"``).  Wall-clock
        time is the caller's to measure around the call.
    comm:
        Aggregate transport counters (``None`` with ``transport="none"``).
    trace:
        The transport's access tracer when run with ``trace=True`` —
        feed it to :func:`repro.verify.find_races`.
    fault_journal:
        The structured log of injected faults and recovery actions when
        run with a ``faults=`` plan (``None`` otherwise).
    recoveries:
        Parallel regions the transport re-executed after an injected
        crash, a corrupt result or a failed worker (DESIGN.md §14.2).
    transport:
        Which transport executed the run (``"simulator"``, ``"threads"``,
        ``"processes"`` or ``"none"``).
    """

    factors: ILUFactors
    decomp: DomainDecomposition
    num_levels: int
    level_sizes: list[int]
    modeled_time: float | None
    comm: CommStats | None
    flops: float
    words_copied: float
    trace: AccessTracer | None = None
    fault_journal: FaultJournal | None = None
    recoveries: int = 0
    transport: str = "none"

    @property
    def nranks(self) -> int:
        return self.decomp.nranks


def result_of(
    outcome: EliminationOutcome, decomp: DomainDecomposition, sim: Simulator | None
) -> ParallelILUResult:
    """Package an engine outcome with the transport's report."""
    return ParallelILUResult(
        factors=outcome.factors,
        decomp=decomp,
        num_levels=outcome.num_levels,
        level_sizes=outcome.level_sizes,
        flops=outcome.flops,
        words_copied=outcome.words_copied,
        **entry_transport.report(sim),
    )


def parallel_ilut(
    A: CSRMatrix,
    params: ILUTParams,
    nranks: int,
    *,
    model: MachineModel = CRAY_T3D,
    transport: str | Simulator | None = "simulator",
    decomp: DomainDecomposition | None = None,
    method: str = "multilevel",
    mis_rounds: int = 5,
    seed: int = 0,
    pivot_policy: PivotPolicy | None = None,
    trace: bool = False,
    faults: FaultPlan | None = None,
    supervision: "SupervisionPolicy | None" = None,
) -> ParallelILUResult:
    """Factor ``A`` with parallel ILUT(m, t) or ILUT*(m, t, k) on
    ``nranks`` simulated PEs.

    Call as ``parallel_ilut(A, ILUTParams(fill=m, threshold=t), nranks)``
    for ILUT, or with ``ILUTParams(fill=m, threshold=t, k=k)`` for ILUT*.

    Parameters
    ----------
    A:
        Square sparse matrix.
    params:
        The :class:`~repro.ilu.params.ILUTParams` dropping parameters
        (``fill`` = max kept per L/U row; ``threshold`` = relative drop
        tolerance; ``k`` = the 3rd rule's reduced-row cap multiplier,
        ``None`` for plain ILUT).  The 3rd rule caps every reduced row at
        ``params.reduced_cap`` (``k * fill``) entries.
    nranks:
        Number of simulated processors.
    model:
        Machine cost model (default: the Cray T3D preset) behind
        ``modeled_time`` on every transport.
    transport:
        Execution backend for the parallel regions — ``"simulator"``
        (default; modelled clocks, the deterministic oracle),
        ``"threads"`` / ``"processes"`` (real workers, bit-identical
        factors), ``"none"`` (no accounting at all; fastest, used
        heavily in tests), or a ready
        :class:`~repro.machine.Simulator` instance.
    decomp:
        Reuse a precomputed decomposition; otherwise one is computed
        with ``method`` (``"multilevel"``/``"block"``/``"random"``).
    mis_rounds:
        Luby augmentation rounds per level (paper: 5); at least 1, or
        ``ValueError`` before any work.
    seed:
        Seed for partitioning and MIS randomness.
    trace:
        Record shared-object accesses for race detection (any
        transport but ``"none"``); see :mod:`repro.verify`.
    pivot_policy:
        Small/zero-pivot remediation
        (:class:`~repro.resilience.PivotPolicy`); ``None`` is
        ``PivotPolicy("guard")``.
    faults:
        A seeded :class:`~repro.faults.FaultPlan` to inject faults into
        the run; the journal lands in
        ``ParallelILUResult.fault_journal``.  Every transport reads
        crash / stall rank faults and corrupt message faults (as
        corrupt-result) at region dispatch and recovers by region
        retry, with the same journal, recoveries and bits (DESIGN.md
        §14).  Drop / delay / duplicate are simulator-only and raise
        :class:`~repro.machine.TransportCapabilityError` off it; a
        message lost past every retransmit raises
        :class:`~repro.faults.MessageLost`.
    supervision:
        A :class:`~repro.machine.SupervisionPolicy` tuning the worker
        supervisor (deadline, poll interval, region retry budget) —
        real transports only.
    """
    decomp = decomposition_for(A, nranks, decomp, method=method, seed=seed)
    with entry_transport(
        transport,
        nranks,
        model=model,
        trace=trace,
        faults=faults,
        supervision=supervision,
    ) as sim:
        outcome = EliminationEngine(
            decomp,
            params.fill,
            params.threshold,
            reduced_cap=params.reduced_cap,
            sim=sim,
            mis_rounds=mis_rounds,
            seed=seed,
            pivot_policy=pivot_policy,
        ).run()
        return result_of(outcome, decomp, sim)


def parallel_ilut_star(
    A: CSRMatrix, params: ILUTParams, nranks: int, **kwargs
) -> ParallelILUResult:
    """Factor ``A`` with parallel ILUT*(m, t, k) — paper §4.2.

    Call as ``parallel_ilut_star(A, ILUTParams(fill, threshold, k), nranks)``.

    :func:`parallel_ilut` (same keywords) under the paper's name, refusing
    ``params.k=None``: the 3rd dropping rule caps every reduced-matrix
    row at ``k*m`` entries, keeping the reduced matrices sparse, the
    independent sets large and the level count low.  The paper finds
    ``k = 2`` matches ILUT's preconditioning quality.
    """
    if params.k is None:
        raise ValueError("parallel_ilut_star() requires ILUTParams with k set")
    return parallel_ilut(A, params, nranks, **kwargs)
