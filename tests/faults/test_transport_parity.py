"""One recovery mechanism: a fault plan reads the same on every transport.

Every transport asks the fault runtime at ``pardo`` dispatch which
ranks to crash, stall or hand a corrupt result, and retries a failed
region from the coordinator's intact state (DESIGN.md §14.2).  So one
plan must give the same journal signature, recovery count, modelled
time and result bits on the simulator, threads and processes, for
every driver that takes ``faults=`` — and those bits must be the
fault-free run's.
"""

import os

import numpy as np
import pytest

from repro.decomp import decompose
from repro.faults import FaultPlan, MessageFault, RankFault
from repro.ilu import (
    ILUTParams,
    parallel_ilu0,
    parallel_ilut,
    parallel_ilut_partitioned,
    parallel_ilut_star,
    parallel_triangular_solve,
)
from repro.matrices import poisson2d
from repro.solvers import parallel_matvec

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

A = poisson2d(12)
NRANKS = 4
PARAMS = ILUTParams(fill=5, threshold=1e-4)
STAR = ILUTParams(fill=5, threshold=1e-4, k=2)
DECOMP = decompose(A, NRANKS, seed=0)
FACTORS = parallel_ilut(A, PARAMS, NRANKS, seed=0, transport="none").factors
VEC = np.sin(np.arange(A.shape[0], dtype=np.float64) + 1.0)


def _factor_bits(res):
    f = res.factors
    return tuple(
        a.tobytes()
        for a in (f.L.data, f.L.indices, f.L.indptr, f.U.data, f.U.indices, f.U.indptr, f.perm)
    )


DRIVERS = {
    "parallel_ilut": (
        lambda **kw: parallel_ilut(A, PARAMS, NRANKS, seed=0, **kw), _factor_bits
    ),
    "parallel_ilut_star": (
        lambda **kw: parallel_ilut_star(A, STAR, NRANKS, seed=0, **kw), _factor_bits
    ),
    "parallel_ilut_partitioned": (
        lambda **kw: parallel_ilut_partitioned(A, PARAMS, NRANKS, seed=0, **kw), _factor_bits
    ),
    "parallel_triangular_solve": (
        lambda **kw: parallel_triangular_solve(FACTORS, VEC, nranks=NRANKS, **kw),
        lambda res: res.x.tobytes(),
    ),
    "parallel_matvec": (
        lambda **kw: parallel_matvec(A, DECOMP, VEC, **kw),
        lambda res: res.y.tobytes(),
    ),
    "parallel_ilu0": (lambda **kw: parallel_ilu0(A, NRANKS, seed=0, **kw), _factor_bits),
}

PLANS = {
    "crash@0": FaultPlan(rank_faults=[RankFault("crash", rank=1, superstep=0)]),
    "crash@5": FaultPlan(rank_faults=[RankFault("crash", rank=1, superstep=5)]),
    "corrupt-src1": FaultPlan(message_faults=[MessageFault("corrupt", src=1)]),
    "stall": FaultPlan(rank_faults=[RankFault("stall", rank=2, superstep=0, stall=0.02)]),
}

#: plans whose fault hits rank 1 in the first region of every driver,
#: by the kind of the one injected event that region retry recovers from
RETRIED = {"crash@0": "crash", "corrupt-src1": "corrupt"}

TRANSPORTS = ("simulator", "threads", "processes")


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_one_plan_reads_alike_on_every_transport(driver, plan_name):
    run, bits = DRIVERS[driver]
    clean = run(transport="simulator")
    seen = {}
    for transport in TRANSPORTS:
        res = run(transport=transport, faults=PLANS[plan_name])
        seen[transport] = (
            res.fault_journal.signature(),
            res.recoveries,
            res.modeled_time,
            bits(res),
        )
        assert bits(res) == bits(clean), transport
    assert seen["threads"] == seen["simulator"]
    assert seen["processes"] == seen["simulator"]
    signature, recoveries, modeled_time, _ = seen["simulator"]
    if plan_name in RETRIED:
        assert recoveries == 1
        assert [event[1] for event in signature] == [RETRIED[plan_name], "region-retry"]
    if plan_name == "stall":
        # charged to rank 2's clock at dispatch; the workers also sleep
        assert recoveries == 0 and [event[1] for event in signature] == ["stall"]
        assert modeled_time > clean.modeled_time
