"""Ablation — the ILUT* k parameter (paper §7).

'The preconditioning quality of ILUT* (relative to ILUT) depends on the
value of k ... As k increases, factorizations produced by ILUT* become
similar to those produced by ILUT.  Our experiments have shown that for
our test matrices, k = 2 leads to factorizations whose preconditioning
ability is comparable to ILUT.'

Sweep k ∈ {1, 2, 4, 8}: levels/time go up with k, GMRES NMV goes down
toward the ILUT reference.
"""

import numpy as np
import pytest

from _reporting import record_table
from _workloads import MODEL, PROCS, SEED, matrix

from repro import parallel_ilut, parallel_ilut_star, decompose
from repro.ilu.params import ILUTParams
from repro.solvers import ILUPreconditioner, gmres

KS = (1, 2, 4, 8)
M, T = 10, 1e-4


def _sweep():
    A = matrix("g0")
    p = PROCS[-1]
    d = decompose(A, p, seed=SEED)
    b = A @ np.ones(A.shape[0])
    rows = []
    ref = parallel_ilut(A, ILUTParams(fill=M, threshold=T), p, decomp=d, model=MODEL, seed=SEED)
    ref_nmv = gmres(
        A, b, restart=20, tol=1e-8, M=ILUPreconditioner(ref.factors), maxiter=20000
    ).num_matvec
    rows.append(["ILUT (ref)", ref.num_levels, ref.modeled_time, ref_nmv])
    for k in KS:
        r = parallel_ilut_star(A, ILUTParams(fill=M, threshold=T, k=k), p, decomp=d, model=MODEL, seed=SEED)
        nmv = gmres(
            A, b, restart=20, tol=1e-8, M=ILUPreconditioner(r.factors), maxiter=20000
        ).num_matvec
        rows.append([f"ILUT* k={k}", r.num_levels, r.modeled_time, nmv])
    return rows


def test_k_sweep(benchmark):
    from repro.analysis import format_table

    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    record_table(
        "Ablation: ILUT* k sweep (G0, m=%d, t=%.0e, p=%d)" % (M, T, PROCS[-1]),
        format_table(["variant", "levels q", "factor time", "GMRES(20) NMV"], rows),
    )
    ref_q, ref_nmv = rows[0][1], rows[0][3]
    by_k = {int(r[0].split("=")[1]): r for r in rows[1:]}
    # levels grow (or stay) as k grows — denser reduced matrices
    qs = [by_k[k][1] for k in KS]
    assert qs == sorted(qs) or qs[-1] >= qs[0]
    # quality approaches ILUT as k grows: k=8's NMV within 30% of ref
    assert abs(by_k[8][3] - ref_nmv) <= max(0.3 * ref_nmv, 8)
    # k=2 (the paper's choice) is already comparable
    assert abs(by_k[2][3] - ref_nmv) <= max(0.5 * ref_nmv, 10)
    # k=8's level count approaches ILUT's
    assert by_k[8][1] <= ref_q
