"""One-stop parallel solve driver.

``parallel_solve`` wires the whole pipeline together the way the paper's
evaluation does: decompose the matrix, compute a parallel ILUT or ILUT*
factorization on the simulated machine, run (real) restarted GMRES with
the factors as left preconditioner, and report both the numerical
outcome and the modelled parallel run time (factorization + iterations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..decomp import decompose
from ..faults import FaultJournal, FaultPlan
from ..ilu.parallel import parallel_ilut
from ..ilu.params import ILUTParams
from ..ilu.triangular import parallel_triangular_solve
from ..machine import CRAY_T3D, MachineModel
from ..resilience import FailureReport, RetryPolicy
from ..sparse import CSRMatrix
from .gmres import GMRESResult, gmres
from .modeled import model_gmres_time
from .parallel_matvec import parallel_matvec
from .preconditioners import ILUPreconditioner

if TYPE_CHECKING:
    from ..machine.supervision import SupervisionPolicy

__all__ = ["ParallelSolveReport", "parallel_solve"]


@dataclass
class ParallelSolveReport:
    """Everything a paper-style evaluation row needs.

    ``failure_report`` records the factorization retry history when a
    :class:`~repro.resilience.RetryPolicy` was engaged (``None`` when the
    first attempt succeeded and no policy was given); ``fault_journal``
    and ``recoveries`` carry the injected-fault log and the number of
    region retries when a :class:`~repro.faults.FaultPlan` was armed.
    """

    x: np.ndarray
    converged: bool
    num_matvec: int
    num_levels: int
    factor_time: float
    solve_time: float
    matvec_time: float
    precond_time: float
    failure_report: FailureReport | None = None
    fault_journal: FaultJournal | None = None
    recoveries: int = 0
    transport: str = "simulator"

    @property
    def total_time(self) -> float:
        """Factorization + iterative solve (the paper's end-to-end cost)."""
        return self.factor_time + self.solve_time


def parallel_solve(
    A: CSRMatrix,
    b: np.ndarray,
    nranks: int,
    *,
    m: int = 10,
    t: float = 1e-4,
    k: int | None = 2,
    restart: int = 20,
    tol: float = 1e-8,
    maxiter: int = 20_000,
    model: MachineModel = CRAY_T3D,
    transport: str = "simulator",
    seed: int = 0,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    supervision: "SupervisionPolicy | None" = None,
) -> ParallelSolveReport:
    """Solve ``A x = b`` with parallel ILUT(*)-preconditioned GMRES.

    Parameters mirror the paper's evaluation: ``k=None`` selects plain
    ILUT; an integer selects ILUT*(m, t, k).  The returned report carries
    the modelled factorization time and the modelled GMRES run time
    (driven by the measured per-application matvec/trisolve times and
    the real NMV count).

    ``transport`` selects the execution backend for every stage
    (factorization, matvec probe, preconditioner probe): ``"simulator"``
    (default), ``"threads"``, ``"processes"`` or ``"none"``.  The report's
    times are the machine model's on every transport (zero on
    ``"none"``); wall-clock is the caller's to measure around the call.

    ``retry`` engages a :class:`~repro.resilience.RetryPolicy` around the
    factorization: a :class:`~repro.resilience.NumericalBreakdown` retries
    with relaxed parameters (larger drop threshold) and the attempt
    history lands in the report's ``failure_report``.  ``faults`` arms a
    :class:`~repro.faults.FaultPlan` on the factorization; on every
    transport a crash / stall / corrupt-result is absorbed by region
    retry (DESIGN.md §14) and counted in ``recoveries``, and on the
    simulator a dropped message is retransmitted.  ``supervision``
    tunes the worker supervisor on real transports
    (:class:`~repro.machine.SupervisionPolicy`).
    """
    d = decompose(A, nranks, seed=seed)
    params = ILUTParams(fill=m, threshold=t, k=k)

    def _factor(p: ILUTParams):
        return parallel_ilut(
            A, p, nranks, decomp=d, model=model, seed=seed, faults=faults,
            transport=transport, supervision=supervision,
        )

    failure_report: FailureReport | None = None
    if retry is None:
        fact = _factor(params)
    else:
        fact, failure_report = retry.run(_factor, params)

    x_probe = np.ones(A.shape[0])
    mv = parallel_matvec(
        A, d, x_probe, model=model, transport=transport, supervision=supervision
    )
    t_mv = mv.modeled_time or 0.0
    pc = parallel_triangular_solve(
        fact.factors, x_probe, nranks=nranks, model=model, transport=transport,
        supervision=supervision,
    )
    t_pc = pc.modeled_time or 0.0

    res: GMRESResult = gmres(
        A, b, restart=restart, tol=tol, maxiter=maxiter,
        M=ILUPreconditioner(fact.factors),
    )
    solve_time = model_gmres_time(
        res.num_matvec, A.shape[0], restart, nranks, model, t_mv, t_pc
    )
    return ParallelSolveReport(
        x=res.x,
        converged=res.converged,
        num_matvec=res.num_matvec,
        num_levels=fact.num_levels,
        factor_time=fact.modeled_time or 0.0,
        solve_time=solve_time,
        matvec_time=t_mv,
        precond_time=t_pc,
        failure_report=failure_report or res.failure_report,
        fault_journal=fact.fault_journal,
        recoveries=fact.recoveries + mv.recoveries + pc.recoveries,
        transport=fact.transport,
    )
