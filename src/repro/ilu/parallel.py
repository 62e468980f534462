"""Public API for the parallel ILUT / ILUT* factorizations.

``parallel_ilut`` and ``parallel_ilut_star`` run the two-phase
elimination of the paper on a simulated ``p``-processor machine and
return the factors together with the modelled time, communication
statistics and the independent-set level structure (the paper's ``q``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..decomp import DomainDecomposition, decompose
from ..faults import FaultJournal, FaultPlan
from ..kernels.backend import resolve_backend
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
        Recovery actions performed during the factorization: engine
        checkpoint rollbacks plus supervised region retries on a real
        transport (DESIGN.md §14).
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
    report = entry_transport.report(sim)
    # engine checkpoint rollbacks + supervised region retries
    report["recoveries"] += outcome.recoveries
    return ParallelILUResult(
        factors=outcome.factors,
        decomp=decomp,
        num_levels=outcome.num_levels,
        level_sizes=outcome.level_sizes,
        flops=outcome.flops,
        words_copied=outcome.words_copied,
        **report,
    )


def parallel_ilut(
    A: CSRMatrix,
    params: ILUTParams,
    nranks: int,
    *,
    reduced_cap: int | None = None,
    model: MachineModel = CRAY_T3D,
    transport: str | Simulator | None = "simulator",
    decomp: DomainDecomposition | None = None,
    method: str = "multilevel",
    mis_rounds: int = 5,
    seed: int = 0,
    diag_guard: bool = True,
    pivot_policy: PivotPolicy | None = None,
    trace: bool = False,
    faults: FaultPlan | None = None,
    checkpoint: bool | None = None,
    backend: str | None = None,
    copy_payloads: bool = False,
    supervision: "SupervisionPolicy | None" = None,
) -> ParallelILUResult:
    """Factor ``A`` with parallel ILUT(m, t) on ``nranks`` simulated PEs.

    Call as ``parallel_ilut(A, ILUTParams(fill=m, threshold=t), nranks)``.

    Parameters
    ----------
    A:
        Square sparse matrix.
    params:
        The :class:`~repro.ilu.params.ILUTParams` dropping parameters
        (``fill`` = max kept per L/U row; ``threshold`` = relative drop
        tolerance).  A set ``params.k`` is ignored here — ``reduced_cap``
        governs the 3rd rule; use :func:`parallel_ilut_star` for ILUT*.
    nranks:
        Number of simulated processors.
    reduced_cap:
        Cap on reduced-row length; ``None`` reproduces plain ILUT.
        (Use :func:`parallel_ilut_star` for the paper's ILUT*(m,t,k).)
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
        Luby augmentation rounds per level (paper: 5).
    seed:
        Seed for partitioning and MIS randomness.
    trace:
        Record shared-object accesses for race detection (any
        transport but ``"none"``); see :mod:`repro.verify`.
    pivot_policy:
        Small/zero-pivot remediation
        (:class:`~repro.resilience.PivotPolicy`); overrides
        ``diag_guard`` when given.
    faults:
        A seeded :class:`~repro.faults.FaultPlan` to inject faults into
        the run; the journal lands in
        ``ParallelILUResult.fault_journal``.  The simulator honours
        every fault kind; the real transports honour the portable
        subset — crash / stall rank faults and corrupt message faults
        (as corrupt-result) — and recover by supervised region retry
        (DESIGN.md §14).  Unportable kinds raise
        :class:`~repro.machine.TransportCapabilityError` off-simulator.
    supervision:
        A :class:`~repro.machine.SupervisionPolicy` tuning the worker
        supervisor (deadline, poll interval, region retry budget) —
        real transports only.
    checkpoint:
        Snapshot per-level state so an injected rank crash resumes from
        the last completed level.  ``None`` (default) enables
        checkpointing exactly when a fault plan is supplied.
    backend:
        Accepted and validated for symmetry with the serial kernels and
        the solve phase; the elimination runs the same kernels
        (:mod:`repro.ilu.row`, :mod:`repro.ilu.level`) under every name.
    copy_payloads:
        Pickle round-trip every simulated message at post time — the
        serializing-transport debug oracle (see
        :class:`~repro.machine.Simulator`); results are bit-identical
        for transport-certified drivers.  Requires
        ``transport="simulator"``.
    """
    resolve_backend(backend)
    if decomp is None:
        decomp = decompose(A, nranks, method=method, seed=seed)
    elif decomp.nranks != nranks:
        raise ValueError(
            f"decomp has {decomp.nranks} ranks but nranks={nranks} was requested"
        )
    if checkpoint is None:
        checkpoint = faults is not None
    with entry_transport(
        transport,
        nranks,
        model=model,
        trace=trace,
        faults=faults,
        copy_payloads=copy_payloads,
        supervision=supervision,
    ) as sim:
        outcome = EliminationEngine(
            decomp,
            params.fill,
            params.threshold,
            reduced_cap=reduced_cap,
            sim=sim,
            mis_rounds=mis_rounds,
            seed=seed,
            diag_guard=diag_guard,
            pivot_policy=pivot_policy,
            checkpoint=checkpoint,
        ).run()
        return result_of(outcome, decomp, sim)


def parallel_ilut_star(
    A: CSRMatrix, params: ILUTParams, nranks: int, **kwargs
) -> ParallelILUResult:
    """Factor ``A`` with parallel ILUT*(m, t, k) — paper §4.2.

    Call as ``parallel_ilut_star(A, ILUTParams(fill, threshold, k), nranks)``.

    Identical to :func:`parallel_ilut` (same keywords) except the 3rd
    dropping rule caps every reduced-matrix row at ``k*m`` entries,
    keeping the reduced matrices sparse, the independent sets large and
    the level count low.  The paper finds ``k = 2`` matches ILUT's
    preconditioning quality.
    """
    if params.k is None:
        raise ValueError("parallel_ilut_star() requires ILUTParams with k set")
    return parallel_ilut(A, params, nranks, reduced_cap=params.reduced_cap, **kwargs)
