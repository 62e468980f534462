"""Ablation — partition quality (paper §3, §6).

'A good domain decomposition ... significantly decreases the amount of
communication required by each of the computational kernels.'  The
multilevel k-way partitioner minimises interface nodes; block and random
partitions are the baselines showing what happens without it.
"""

import numpy as np
import pytest

from _reporting import record_table
from _workloads import MODEL, PROCS, SEED, matrix

from repro import decompose, parallel_ilut
from repro.ilu.params import ILUTParams
from repro.solvers import parallel_matvec

METHODS = ("multilevel", "block", "random")


def _sweep():
    A = matrix("g0")
    p = PROCS[-1]
    x = np.ones(A.shape[0])
    rows = []
    for method in METHODS:
        d = decompose(A, p, method=method, seed=SEED)
        r = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-4), p, decomp=d, model=MODEL, seed=SEED)
        mv = parallel_matvec(A, d, x, model=MODEL)
        rows.append(
            [
                method,
                d.n_interface,
                r.num_levels,
                r.modeled_time,
                mv.modeled_time,
            ]
        )
    return rows


def test_partition_quality(benchmark):
    from repro.analysis import format_table

    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    record_table(
        "Ablation: partition quality (G0, ILUT(10,1e-4), p=%d)" % PROCS[-1],
        format_table(
            ["method", "interface rows", "levels q", "factor time", "matvec time"],
            rows,
        ),
    )
    by = {r[0]: r for r in rows}
    # multilevel minimises interface rows by a wide margin
    assert by["multilevel"][1] < 0.6 * by["random"][1]
    assert by["multilevel"][1] <= by["block"][1]
    # fewer interface rows → faster factorization and matvec
    assert by["multilevel"][3] < by["random"][3]
    assert by["multilevel"][4] < by["random"][4]
