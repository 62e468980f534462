"""Table 3 — GMRES(20)/GMRES(50) with ILUT / ILUT* / diagonal preconditioning.

Paper: on 128 PEs, solve both systems with b = A·e, zero initial guess,
stopping at 1e-8 residual reduction; report run time and NMV (number of
matvecs) for the 18 incomplete factorizations and the diagonal
preconditioner.  Shapes: ILUT and ILUT* comparable in NMV (mixed
winners); both far fewer NMV (and faster) than diagonal; for t=1e-6 the
ILUT* *time* beats ILUT's thanks to cheaper triangular solves.
"""

from functools import lru_cache

import numpy as np
import pytest

from _reporting import record_table
from _workloads import (
    CFG,
    MODEL,
    MS,
    TS,
    KSTAR,
    SEED,
    label,
    matrix,
)

from repro import decompose, parallel_ilut, parallel_ilut_star
from repro.ilu import parallel_triangular_solve
from repro.ilu.params import ILUTParams
from repro.solvers import (
    DiagonalPreconditioner,
    ILUPreconditioner,
    gmres,
    model_diagonal_precond_time,
    model_gmres_time,
    parallel_matvec,
)

P = CFG["gmres_p"]
RESTARTS = (20, 50)
MAXITER = 20_000


@lru_cache(maxsize=None)
def _decomp(name):
    return decompose(matrix(name), P, seed=SEED)


@lru_cache(maxsize=None)
def _factor(name, algo, m, t):
    A = matrix(name)
    if algo == "ILUT":
        return parallel_ilut(A, ILUTParams(fill=m, threshold=t), P, decomp=_decomp(name), model=MODEL, seed=SEED)
    return parallel_ilut_star(
        A, ILUTParams(fill=m, threshold=t, k=KSTAR), P, decomp=_decomp(name), model=MODEL, seed=SEED
    )


@lru_cache(maxsize=None)
def _kernel_times(name, algo, m, t):
    """Modelled per-application times of matvec and preconditioner."""
    A = matrix(name)
    d = _decomp(name)
    x = np.ones(A.shape[0])
    t_mv = parallel_matvec(A, d, x, model=MODEL).modeled_time
    if algo == "diag":
        return t_mv, model_diagonal_precond_time(A.shape[0], P, MODEL)
    r = _factor(name, algo, m, t)
    t_pc = parallel_triangular_solve(r.factors, x, nranks=P, model=MODEL).modeled_time
    return t_mv, t_pc


@lru_cache(maxsize=None)
def _solve(name, algo, m, t, restart):
    """Run GMRES numerically; model its parallel run time."""
    A = matrix(name)
    b = A @ np.ones(A.shape[0])
    if algo == "diag":
        M = DiagonalPreconditioner(A)
    else:
        M = ILUPreconditioner(_factor(name, algo, m, t).factors)
    res = gmres(A, b, restart=restart, tol=1e-8, maxiter=MAXITER, M=M)
    t_mv, t_pc = _kernel_times(name, algo, m, t)
    time_model = model_gmres_time(
        res.num_matvec, A.shape[0], restart, P, MODEL, t_mv, t_pc
    )
    nmv = res.num_matvec if res.converged else -res.num_matvec  # sign = failed
    return time_model, nmv


def _build_table(name: str) -> tuple[str, dict]:
    from repro.analysis import format_table

    rows = []
    data = {}
    configs = [("ILUT", m, t) for t in TS for m in MS] + [
        ("ILUT*", m, t) for t in TS for m in MS
    ]
    for algo, m, t in configs:
        row = [label(algo, m, t)]
        for restart in RESTARTS:
            tm, nmv = _solve(name, algo, m, t, restart)
            data[(algo, m, t, restart)] = (tm, nmv)
            row += [tm, nmv]
        rows.append(row)
    row = ["Diagonal"]
    for restart in RESTARTS:
        tm, nmv = _solve(name, "diag", 0, 0.0, restart)
        data[("diag", 0, 0.0, restart)] = (tm, nmv)
        row += [tm, nmv]
    rows.append(row)
    headers = ["Preconditioner"]
    for restart in RESTARTS:
        headers += [f"GMRES({restart}) Time", "NMV"]
    table = format_table(
        headers,
        rows,
        title=(
            f"Table 3 [{name}]: GMRES on p={P} (modelled time s; NMV<0 means "
            "not converged within the matvec budget)"
        ),
    )
    return table, data


@pytest.mark.parametrize("name", ["g0_gmres", "torso_gmres"])
def test_table3_gmres(benchmark, name):
    table, data = benchmark.pedantic(_build_table, args=(name,), rounds=1, iterations=1)
    record_table(f"Table 3 ({name})", table)

    # Shape 1: ILUT vs ILUT* comparable (within a small factor) on NMV
    for restart in RESTARTS:
        n_i = abs(data[("ILUT", 10, 1e-4, restart)][1])
        n_s = abs(data[("ILUT*", 10, 1e-4, restart)][1])
        assert 0.25 < n_s / n_i < 4.0

    # Shape 2: good ILUT beats diagonal decisively in NMV
    nd = abs(data[("diag", 0, 0.0, 20)][1])
    ni = abs(data[("ILUT", 20, 1e-6, 20)][1])
    assert ni < nd / 2

    # Shape 3: at t=1e-6 ILUT* time <= ILUT time (cheaper trisolves)
    t_i = data[("ILUT", 20, 1e-6, 20)][0]
    t_s = data[("ILUT*", 20, 1e-6, 20)][0]
    assert t_s <= t_i * 1.2
