"""Distributed sparse matrix-vector multiplication on the simulator.

The third computational kernel of a preconditioned iterative method
(paper §1).  Each rank owns its rows; before computing, boundary values
of ``x`` are exchanged along the halo plan of the decomposition — the
communication volume is proportional to the number of interface nodes,
which is why partition quality shows up directly in matvec speedup
(Table 2's last row achieves near-linear speedup on the paper's
partitions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..decomp import DomainDecomposition
from ..faults import FaultJournal, FaultPlan
from ..kernels.csr import csr_matvec_rows
from ..machine import (
    CRAY_T3D,
    CommStats,
    MachineModel,
    Simulator,
    entry_transport,
    run_region,
)
from ..sparse import CSRMatrix

if TYPE_CHECKING:
    from ..machine.supervision import SupervisionPolicy
    from ..verify.trace import AccessTracer

__all__ = ["MatvecResult", "parallel_matvec"]


@dataclass
class MatvecResult:
    """Result of one distributed matvec."""

    y: np.ndarray
    modeled_time: float | None
    comm: CommStats | None
    flops: float
    trace: AccessTracer | None = None
    fault_journal: FaultJournal | None = None
    recoveries: int = 0
    transport: str = "none"


def parallel_matvec(
    A: CSRMatrix,
    decomp: DomainDecomposition,
    x: np.ndarray,
    *,
    model: MachineModel = CRAY_T3D,
    transport: str | Simulator | None = "simulator",
    halo_plan: dict[tuple[int, int], np.ndarray] | None = None,
    trace: bool = False,
    faults: FaultPlan | None = None,
    supervision: "SupervisionPolicy | None" = None,
) -> MatvecResult:
    """Compute ``y = A @ x`` with halo exchange + local compute.

    ``halo_plan`` may be precomputed once (e.g. per GMRES solve) with
    :meth:`DomainDecomposition.halo_plan` and reused across calls.

    Each rank's thunk computes its rows with
    :func:`repro.kernels.csr.csr_matvec_rows`, every row summed left to
    right from ``0.0``, so ``y`` equals ``A.matvec(x)`` bit for bit on
    every transport.

    ``transport`` selects the execution backend (``"simulator"`` |
    ``"threads"`` | ``"processes"`` | ``"none"`` | a ready
    :class:`~repro.machine.Simulator`).

    ``faults`` arms a :class:`~repro.faults.FaultPlan`; the simulator
    honours every fault kind (injected message faults surface as
    :class:`~repro.faults.MessageLost` /
    :class:`~repro.faults.RankFailure`), while the real transports
    honour the portable subset — crash / stall rank faults and corrupt
    message faults (as corrupt-result) — and recover by supervised
    region retry (DESIGN.md §14).  The journal is returned on the
    result.  ``supervision`` tunes the worker supervisor
    (:class:`~repro.machine.SupervisionPolicy`; real transports only).
    """
    x = np.asarray(x, dtype=np.float64)
    n = A.shape[0]
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, expected ({n},)")
    with entry_transport(
        transport,
        decomp.nranks,
        model=model,
        trace=trace,
        faults=faults,
        supervision=supervision,
    ) as sim:
        y, flops = _matvec_on(A, decomp, x, sim, halo_plan)
        return MatvecResult(y=y, flops=flops, **entry_transport.report(sim))


def _matvec_on(
    A: CSRMatrix,
    decomp: DomainDecomposition,
    x: np.ndarray,
    sim,
    halo_plan: dict[tuple[int, int], np.ndarray] | None,
) -> tuple[np.ndarray, float]:
    """Run one matvec against a resolved transport (or ``None``);
    returns ``(y, flops)``.

    One parallel region, one pure thunk per rank (read-shared ``x``,
    write-own rows); the coordinator stores the parts and replays
    declarations and charges in rank order, bit-identical on every
    transport.
    """
    n = A.shape[0]
    tr = getattr(sim, "tracer", None)
    if halo_plan is None:
        halo_plan = decomp.halo_plan()

    if tr is not None:
        # each rank publishes its owned x entries before the exchange
        for r in range(decomp.nranks):
            for j in decomp.owned_rows(r):
                tr.write(r, "x", int(j))
    if sim is not None:
        sim.exchange(
            [(src, dst, float(nodes.size)) for (src, dst), nodes in sorted(halo_plan.items())],
            tag="halo",
        )

    owned = [decomp.owned_rows(r) for r in range(decomp.nranks)]
    parts = run_region(
        sim, [(lambda rows=rows: csr_matvec_rows(A, x, rows)) for rows in owned]
    )
    row_nnz = np.diff(A.indptr)
    y = np.zeros(n)
    flops_total = 0.0
    for r, rows in enumerate(owned):
        if tr is not None:
            _declare_rows(tr, r, A, rows)
        y[rows] = parts[r]
        # integer-valued, so the per-rank total is exact
        fl = float((2.0 * row_nnz[rows]).sum())
        if sim is not None:
            sim.compute(r, fl)
        flops_total += fl
    if sim is not None:
        sim.barrier()
    return y, flops_total


def _declare_rows(tr, rank: int, A: CSRMatrix, rows: np.ndarray) -> None:
    """Declare rank ``rank``'s accesses: each row reads its columns of
    ``x`` and writes its entry of ``y``."""
    for i in rows:
        cols, _ = A.row(int(i))
        if cols.size:
            tr.read_many(rank, "x", cols)
        tr.write(rank, "y", int(i))
