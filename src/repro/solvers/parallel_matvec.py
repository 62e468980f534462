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
    backend: str | None = None,
    faults: FaultPlan | None = None,
    copy_payloads: bool = False,
    supervision: "SupervisionPolicy | None" = None,
) -> MatvecResult:
    """Compute ``y = A @ x`` with halo exchange + local compute.

    ``halo_plan`` may be precomputed once (e.g. per GMRES solve) with
    :meth:`DomainDecomposition.halo_plan` and reused across calls.

    With ``backend="vectorized"`` the local products run through
    :func:`repro.kernels.csr.csr_matvec` while the halo messages,
    per-rank charges and (when tracing) access declarations follow the
    reference loop — ``modeled_time``, ``comm`` and race results are
    identical, ``y`` agrees to roundoff.

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

    ``copy_payloads=True`` pickle round-trips every message at post time
    (the serializing-transport debug oracle; any transport but
    ``"none"``) — results are bit-identical.
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
        copy_payloads=copy_payloads,
        supervision=supervision,
    ) as sim:
        y, flops = _matvec_on(A, decomp, x, sim, halo_plan, backend)
        return MatvecResult(y=y, flops=flops, **entry_transport.report(sim))


def _matvec_on(
    A: CSRMatrix,
    decomp: DomainDecomposition,
    x: np.ndarray,
    sim,
    halo_plan: dict[tuple[int, int], np.ndarray] | None,
    backend: str | None,
) -> tuple[np.ndarray, float]:
    """Run one matvec against a resolved transport (or ``None``);
    returns ``(y, flops)``."""
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
            [(src, dst, None, float(nodes.size)) for (src, dst), nodes in sorted(halo_plan.items())],
            tag="halo",
        )

    from ..kernels.backend import VECTORIZED, resolve_backend

    row_nnz = np.diff(A.indptr)
    flops_total = 0.0
    if resolve_backend(backend) == VECTORIZED:
        # vectorized numerics are computed globally by the coordinator on
        # every transport (trivially transport-invariant — see DESIGN.md
        # §13 on the soundness boundary); per-rank charges/declarations
        # mirror the reference loop, and the costs are integer-valued so
        # the batched sums match bit for bit
        y = A.matvec(x, backend=VECTORIZED)
        for r in range(decomp.nranks):
            rows = decomp.owned_rows(r)
            if tr is not None:
                for i in rows:
                    cols, _ = A.row(int(i))
                    if cols.size:
                        tr.read_many(r, "x", cols)
                    tr.write(r, "y", int(i))
            fl = float((2.0 * row_nnz[rows]).sum())
            if sim is not None:
                sim.compute(r, fl)
            flops_total += fl
    else:
        # reference backend: one parallel region, one pure thunk per rank
        # (read-shared x, write-own rows); the coordinator merges partial
        # results and replays declarations/charges in rank order — the
        # historical inline order, bit-identical on every transport
        y = np.zeros(n)

        def local_rows(r: int) -> tuple[np.ndarray, np.ndarray, float]:
            rows = decomp.owned_rows(r)
            part = np.zeros(rows.size)
            fl = 0.0
            for j, i in enumerate(rows):
                cols, vals = A.row(int(i))
                if cols.size:
                    part[j] = np.dot(vals, x[cols])
                fl += 2.0 * row_nnz[i]
            return rows, part, fl

        results = run_region(
            sim, [(lambda r=r: local_rows(r)) for r in range(decomp.nranks)]
        )
        for r in range(decomp.nranks):
            rows, part, fl = results[r]
            if tr is not None:
                for i in rows:
                    cols, _ = A.row(int(i))
                    if cols.size:
                        tr.read_many(r, "x", cols)
                    tr.write(r, "y", int(i))
            y[rows] = part
            if sim is not None:
                sim.compute(r, fl)
            flops_total += fl
    if sim is not None:
        sim.barrier()
    return y, flops_total
