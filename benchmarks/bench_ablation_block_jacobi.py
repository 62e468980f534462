"""Ablation — why the interface factorization matters at all.

The zero-communication alternative to the paper's algorithm is
block-Jacobi ILUT: factor each domain's diagonal block, ignore all
cross-domain coupling.  Its quality decays as p grows (more coupling
discarded), while the paper's parallel ILUT preserves the sequential
preconditioner's quality at any p.  ILUM (global multi-elimination,
Saad '92 — the paper's reference [11]) is shown as the serial
independent-set relative.
"""

import numpy as np
import pytest

from _reporting import record_table
from _workloads import MODEL, PROCS, SEED, matrix

from repro import decompose, parallel_ilut
from repro.ilu import block_jacobi_ilut, ilum
from repro.ilu.params import ILUTParams
from repro.solvers import ILUPreconditioner, gmres

M, T = 10, 1e-4


def _sweep():
    A = matrix("g0")
    b = A @ np.ones(A.shape[0])
    rows = []
    for p in PROCS:
        d = decompose(A, p, seed=SEED)
        bj = block_jacobi_ilut(A, ILUTParams(fill=M, threshold=T), p, decomp=d, model=MODEL, seed=SEED)
        full = parallel_ilut(A, ILUTParams(fill=M, threshold=T), p, decomp=d, model=MODEL, seed=SEED)
        n_bj = gmres(A, b, restart=20, tol=1e-8, M=bj, maxiter=20000).num_matvec
        n_full = gmres(
            A, b, restart=20, tol=1e-8, M=ILUPreconditioner(full.factors),
            maxiter=20000,
        ).num_matvec
        rows.append([f"p={p}", n_bj, n_full])
    n_ilum = gmres(
        A, b, restart=20, tol=1e-8, M=ILUPreconditioner(ilum(A, M, T, seed=SEED)),
        maxiter=20000,
    ).num_matvec
    return rows, n_ilum


def test_block_jacobi_vs_parallel_ilut(benchmark):
    from repro.analysis import format_table

    rows, n_ilum = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    record_table(
        "Ablation: block-Jacobi ILUT vs parallel ILUT (G0, m=%d, t=%.0e)" % (M, T),
        format_table(
            ["procs", "block-Jacobi NMV", "parallel ILUT NMV"], rows
        )
        + f"\nILUM (serial multi-elimination) NMV: {n_ilum}",
    )
    bj = [r[1] for r in rows]
    full = [r[2] for r in rows]
    # block-Jacobi degrades with p
    assert bj[-1] > bj[0]
    # parallel ILUT's quality is roughly p-independent
    assert max(full) <= 2 * min(full) + 5
    # and beats block-Jacobi at scale
    assert full[-1] < bj[-1]
