"""Ablation — §7 future-work formulation: partitioning vs independent sets.

'As the desired ILUT and ILUT* factorizations become denser, an
alternative parallel formulation can be developed that utilizes graph
partitioning to extract concurrency instead of independent sets of
rows.'  We implemented it (repro.ilu.interface_partition); this bench
compares synchronisation levels, modelled time and preconditioner
quality against the MIS formulation on a dense factorization.
"""

import numpy as np
import pytest

from _reporting import record_table
from _workloads import MODEL, PROCS, SEED, matrix

from repro import decompose, parallel_ilut, parallel_ilut_partitioned
from repro.ilu.params import ILUTParams
from repro.solvers import ILUPreconditioner, gmres

M, T = 10, 1e-6  # dense regime — where §7 says partitioning should win


def _compare():
    A = matrix("g0")
    p = PROCS[-1]
    d = decompose(A, p, seed=SEED)
    b = A @ np.ones(A.shape[0])
    rows = []
    for name, runner in (
        ("MIS levels", lambda: parallel_ilut(A, ILUTParams(fill=M, threshold=T), p, decomp=d, model=MODEL, seed=SEED)),
        (
            "interface partition",
            lambda: parallel_ilut_partitioned(
                A, ILUTParams(fill=M, threshold=T), p, decomp=d, model=MODEL, seed=SEED
            ),
        ),
    ):
        r = runner()
        res = gmres(
            A, b, restart=20, tol=1e-8, M=ILUPreconditioner(r.factors), maxiter=20000
        )
        rows.append([name, r.num_levels, r.modeled_time, res.num_matvec, res.converged])
    return rows


def test_interface_partition_vs_mis(benchmark):
    from repro.analysis import format_table

    rows = benchmark.pedantic(_compare, rounds=1, iterations=1)
    record_table(
        "Ablation: §7 interface partitioning (G0, ILUT(%d,%.0e), p=%d)"
        % (M, T, PROCS[-1]),
        format_table(
            ["formulation", "sync levels", "factor time", "GMRES(20) NMV", "conv"],
            rows,
        ),
    )
    mis, part = rows
    # the partition formulation needs far fewer synchronisation levels
    assert part[1] < 0.5 * mis[1]
    # and stays a usable preconditioner
    assert part[4] is True
    assert part[3] < 5 * mis[3]
