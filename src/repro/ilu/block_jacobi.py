"""Block-Jacobi ILUT preconditioner — the zero-communication strawman.

The cheapest way to "parallelise" an incomplete factorization is to
ignore the coupling between domains entirely: each processor ILUT-
factors its diagonal block and applies it with no communication at all.
The paper's whole point is that this throws away the interface coupling
that makes ILUT effective; this module implements the strawman so the
library (and the ablation bench) can quantify exactly how much the
two-phase interface factorization buys as p grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..decomp import DomainDecomposition, decomposition_for
from ..machine import CRAY_T3D, MachineModel, Simulator, entry_transport
from ..sparse import CSRMatrix
from .factors import ILUFactors
from .ilut import ilut
from .params import ILUTParams

__all__ = ["BlockJacobiILU", "block_jacobi_ilut"]


@dataclass
class BlockJacobiILU:
    """Per-domain ILUT factors applied block-wise (no coupling).

    ``apply`` solves each domain's block system independently — the
    application is embarrassingly parallel, but the preconditioner
    ignores every cross-domain entry of A.
    """

    decomp: DomainDecomposition
    blocks: list[ILUFactors]
    rows: list[np.ndarray]
    modeled_factor_time: float | None = None

    @property
    def nranks(self) -> int:
        return self.decomp.nranks

    def apply(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        n = self.decomp.A.shape[0]
        if r.shape != (n,):
            raise ValueError(f"r has shape {r.shape}, expected ({n},)")
        out = np.zeros(n)
        for rows, factors in zip(self.rows, self.blocks):
            if rows.size:
                out[rows] = factors.solve(r[rows])
        return out

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.apply(r)

    def total_nnz(self) -> int:
        return sum(f.nnz for f in self.blocks)


def block_jacobi_ilut(
    A: CSRMatrix,
    params: ILUTParams,
    nranks: int,
    *,
    decomp: DomainDecomposition | None = None,
    model: MachineModel = CRAY_T3D,
    transport: str | Simulator | None = "simulator",
    seed: int = 0,
) -> BlockJacobiILU:
    """Factor each domain's diagonal block with ILUT(m, t).

    The modelled factorization time is the slowest rank's local ILUT —
    no communication, no synchronisation beyond the trailing barrier.
    """
    decomp = decomposition_for(A, nranks, decomp, seed=seed)
    blocks: list[ILUFactors] = []
    row_sets: list[np.ndarray] = []
    with entry_transport(transport, nranks, model=model) as sim:
        for r in range(nranks):
            rows = decomp.owned_rows(r)
            row_sets.append(rows)
            if rows.size == 0:
                blocks.append(
                    ILUFactors(
                        L=CSRMatrix.zeros(0),
                        U=CSRMatrix.zeros(0),
                        perm=np.empty(0, dtype=np.int64),
                    )
                )
                continue
            factors = ilut(A.submatrix(rows, rows), params)
            blocks.append(factors)
            if sim is not None:
                sim.compute(r, float(factors.stats.get("flops", 0)))
        if sim is not None:
            sim.barrier()
        return BlockJacobiILU(
            decomp=decomp,
            blocks=blocks,
            rows=row_sets,
            modeled_factor_time=sim.elapsed() if sim is not None else None,
        )
