"""Ablation — capped Luby augmentation rounds (paper §4.1).

'Our parallel independent set algorithm performs only five such
augmentation steps.  This reduces the run time of the algorithm without
significantly reducing the size of the computed independent sets.'

Sweep rounds ∈ {1, 2, 5, 20}: more rounds → fewer levels but more
MIS work per level; 5 should be close to the asymptote.
"""

import pytest

from _reporting import record_table
from _workloads import MODEL, PROCS, SEED, matrix

from repro import decompose, parallel_ilut
from repro.ilu.params import ILUTParams

ROUNDS = (1, 2, 5, 20)


def _sweep():
    A = matrix("g0")
    p = PROCS[-1]
    d = decompose(A, p, seed=SEED)
    rows = []
    for rounds in ROUNDS:
        r = parallel_ilut(
            A, ILUTParams(fill=10, threshold=1e-4), p, decomp=d, model=MODEL, seed=SEED, mis_rounds=rounds
        )
        rows.append([f"rounds={rounds}", r.num_levels, r.modeled_time])
    return rows


def test_luby_round_cap(benchmark):
    from repro.analysis import format_table

    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    record_table(
        "Ablation: Luby rounds (G0, ILUT(10,1e-4), p=%d)" % PROCS[-1],
        format_table(["cap", "levels q", "factor time"], rows),
    )
    q = {int(r[0].split("=")[1]): r[1] for r in rows}
    # more rounds can only reduce (or keep) the level count
    assert q[20] <= q[1]
    # 5 rounds is close to exhaustive: within 25% of the 20-round level count
    assert q[5] <= 1.25 * q[20] + 2
    # 1 round costs extra levels compared to 5
    assert q[1] >= q[5]
