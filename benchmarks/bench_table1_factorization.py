"""Table 1 — parallel factorization run time.

Paper: for G0 and TORSO, the run time (seconds) of the 9 ILUT(m,t) and 9
ILUT*(m,t,2) factorizations on 16/32/64/128 Cray T3D processors.  Shapes
to reproduce: time grows with m and 1/t; ILUT* ≤ ILUT everywhere; the
ILUT/ILUT* gap widens with p and with smaller t.
"""

import pytest

from _reporting import record_table
from _workloads import MODEL, PROCS, all_configs, factorize, label, matrix
from repro.ilu.params import ILUTParams


def _build_table(name: str) -> str:
    from repro.analysis import format_table

    rows = []
    for algo, m, t in all_configs():
        row = [label(algo, m, t)]
        for p in PROCS:
            row.append(factorize(name, algo, m, t, p).modeled_time)
        rows.append(row)
    headers = ["Factorization"] + [f"p={p}" for p in PROCS]
    A = matrix(name)
    return format_table(
        headers,
        rows,
        title=(
            f"Table 1 [{name}]: factorization time (modelled s, {MODEL.name}), "
            f"n={A.shape[0]}, nnz={A.nnz}"
        ),
    )


@pytest.mark.parametrize("name", ["g0", "torso"])
def test_table1(benchmark, name):
    table = benchmark.pedantic(_build_table, args=(name,), rounds=1, iterations=1)
    record_table(f"Table 1 ({name})", table)
    # shape assertions from the paper
    pmax = PROCS[-1]
    t_cheap = factorize(name, "ILUT", 5, 1e-2, pmax).modeled_time
    t_dear = factorize(name, "ILUT", 20, 1e-6, pmax).modeled_time
    assert t_dear > t_cheap, "cost must grow with m and 1/t"
    ti = factorize(name, "ILUT", 20, 1e-6, pmax).modeled_time
    ts = factorize(name, "ILUT*", 20, 1e-6, pmax).modeled_time
    assert ts <= ti, "ILUT* must not be slower than ILUT"


def test_gap_widens_with_p(benchmark):
    """Paper: on TORSO, ILUT(20,1e-6) is 1.?x slower than ILUT* at p=16
    but ~2.7x slower at p=128 — the ratio must grow with p."""

    def ratios():
        return [
            factorize("torso", "ILUT", 20, 1e-6, p).modeled_time
            / factorize("torso", "ILUT*", 20, 1e-6, p).modeled_time
            for p in PROCS
        ]

    r = benchmark.pedantic(ratios, rounds=1, iterations=1)
    record_table(
        "Table 1 ILUT-over-ILUT* ratio (torso, m=20, t=1e-6)",
        "  ".join(f"p={p}: {x:.2f}" for p, x in zip(PROCS, r)),
    )
    assert r[-1] >= r[0] * 0.95, f"gap should widen with p, got {r}"


def test_wall_clock_single_factorization(benchmark):
    """Real (host) wall time of one mid-grade parallel factorization."""
    A = matrix("g0")
    from repro import parallel_ilut

    benchmark.pedantic(
        lambda: parallel_ilut(A, ILUTParams(fill=10, threshold=1e-4), PROCS[1], seed=0),
        rounds=1,
        iterations=1,
    )
