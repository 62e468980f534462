"""Ablation — machine-model sensitivity (paper §7's cluster remark).

'The modifications of ILUT* are critical for obtaining good performance
on parallel computers with slower communication networks (such as
workstation clusters).'  Sweep the communication cost from free to
ethernet-class and watch the absolute ILUT→ILUT* saving explode while
the pure-compute saving stays fixed.
"""

import pytest

from _reporting import record_table
from _workloads import PROCS, SEED, matrix

from repro import decompose, parallel_ilut, parallel_ilut_star
from repro.ilu.params import ILUTParams
from repro.machine import CRAY_T3D, IDEAL, WORKSTATION_CLUSTER, MachineModel

M, T = 10, 1e-6

MODELS = (
    IDEAL,
    CRAY_T3D,
    MachineModel("mid-cluster", flop_time=1e-7, latency=1e-4, byte_time=1.0 / 40e6),
    WORKSTATION_CLUSTER,
)


def _sweep():
    A = matrix("g0")
    p = PROCS[-1]
    d = decompose(A, p, seed=SEED)
    rows = []
    for model in MODELS:
        ti = parallel_ilut(A, ILUTParams(fill=M, threshold=T), p, decomp=d, model=model, seed=SEED).modeled_time
        ts = parallel_ilut_star(
            A, ILUTParams(fill=M, threshold=T, k=2), p, decomp=d, model=model, seed=SEED
        ).modeled_time
        rows.append([model.name, model.latency, ti, ts, ti - ts])
    return rows


def test_machine_sensitivity(benchmark):
    from repro.analysis import format_table

    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    record_table(
        "Ablation: machine sensitivity (G0, m=%d, t=%.0e, p=%d)" % (M, T, PROCS[-1]),
        format_table(
            ["machine", "latency (s)", "ILUT time", "ILUT* time", "ILUT* saving"],
            rows,
            floatfmt="{:.5f}",
        ),
    )
    # ILUT* never slower on any machine
    for row in rows:
        assert row[3] <= row[2] * 1.02, row[0]
    # absolute saving grows monotonically with communication cost
    savings = [row[4] for row in rows]
    assert savings == sorted(savings), savings
    # ethernet-class saving dwarfs the T3D's
    assert savings[-1] > 5 * savings[1]
