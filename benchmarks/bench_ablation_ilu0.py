"""Ablation — static ILU(0) colouring vs dynamic ILUT MIS (paper §3).

Figure 1 of the paper contrasts the two regimes: ILU(0)'s concurrency
structure is a one-shot colouring (few levels, computable up front),
while ILUT must recompute independent sets as fill adds dependencies
(many levels, computed during factorization).  The price of ILU(0)'s
simplicity is preconditioning quality (paper §2).
"""

import numpy as np
import pytest

from _reporting import record_table
from _workloads import MODEL, PROCS, SEED, matrix

from repro import decompose, parallel_ilut
from repro.ilu import parallel_ilu0
from repro.ilu.params import ILUTParams
from repro.solvers import ILUPreconditioner, gmres


def _compare():
    A = matrix("g0")
    p = PROCS[-1]
    d = decompose(A, p, seed=SEED)
    b = A @ np.ones(A.shape[0])
    rows = []
    for name, runner in (
        ("ILU(0) colouring", lambda: parallel_ilu0(A, p, decomp=d, model=MODEL, seed=SEED)),
        ("ILUT(10,1e-2) MIS", lambda: parallel_ilut(A, ILUTParams(fill=10, threshold=1e-2), p, decomp=d, model=MODEL, seed=SEED)),
        ("ILUT(10,1e-6) MIS", lambda: parallel_ilut(A, ILUTParams(fill=10, threshold=1e-6), p, decomp=d, model=MODEL, seed=SEED)),
    ):
        r = runner()
        res = gmres(
            A, b, restart=20, tol=1e-8, M=ILUPreconditioner(r.factors), maxiter=20000
        )
        rows.append(
            [name, r.num_levels, r.factors.nnz, r.modeled_time, res.num_matvec]
        )
    return rows


def test_ilu0_vs_ilut(benchmark):
    from repro.analysis import format_table

    rows = benchmark.pedantic(_compare, rounds=1, iterations=1)
    record_table(
        "Ablation: ILU(0) colouring vs ILUT MIS (G0, p=%d)" % PROCS[-1],
        format_table(
            ["variant", "levels q", "nnz(L+U)", "factor time", "GMRES(20) NMV"],
            rows,
        ),
    )
    ilu0_row, ilut2_row, ilut6_row = rows
    # static colouring gives far fewer levels than the dense dynamic case
    assert ilu0_row[1] < ilut6_row[1]
    # and a much cheaper factorization
    assert ilu0_row[3] < ilut6_row[3]
    # but the tight ILUT is the stronger preconditioner
    assert ilut6_row[4] <= ilu0_row[4]
