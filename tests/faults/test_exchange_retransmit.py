"""Every driver survives a dropped message: ``Simulator.exchange``
re-posts it, up to ``MAX_RETRANSMITS`` times, and then escalates."""

import numpy as np
import pytest

from repro import ILUTParams, poisson2d
from repro.decomp import decompose
from repro.faults import FaultPlan, MessageFault, MessageLost
from repro.ilu import parallel_ilu0, parallel_ilut, parallel_ilut_star
from repro.ilu.triangular import parallel_triangular_solve
from repro.machine import CRAY_T3D, MAX_RETRANSMITS, Simulator
from repro.solvers.parallel_matvec import parallel_matvec

A = poisson2d(10)
DECOMP = decompose(A, 4, seed=0)
X = np.cos(np.arange(A.shape[0], dtype=np.float64)) + 2.0


def _solve(sim):
    f = parallel_ilut_star(A, ILUTParams(fill=5, threshold=1e-3, k=2), 4, seed=0).factors
    return parallel_triangular_solve(f, X, nranks=4, transport=sim).x.tobytes()


def _matvec(sim):
    return parallel_matvec(A, DECOMP, X, transport=sim).y.tobytes()


def _factors(res):
    f = res.factors
    return b"".join(a.tobytes() for a in (f.L.data, f.L.indices, f.U.data, f.U.indices, f.perm))


def _ilut(sim):
    params = ILUTParams(fill=5, threshold=1e-3)
    return _factors(parallel_ilut(A, params, 4, decomp=DECOMP, transport=sim))


def _ilu0(sim):
    return _factors(parallel_ilu0(A, 4, decomp=DECOMP, transport=sim))


# (driver, the tag of its messages); each driver's first message goes
# 0 -> 2. The distributed MIS runs inside parallel_ilut's phase 2, so
# its case drives parallel_ilut and drops the MIS exchange
# ("mis", level) of the first phase-2 level
DRIVERS = {
    "parallel_triangular_solve": (_solve, "fwd"),
    "parallel_matvec": (_matvec, "halo"),
    "distributed_mis": (_ilut, "mis"),
    "parallel_ilu0": (_ilu0, "ilu0"),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_a_dropped_message_is_retransmitted_then_escalates(driver):
    run, tag = DRIVERS[driver]
    clean = run(Simulator(4, CRAY_T3D))

    def drop(count):
        plan = FaultPlan(message_faults=[MessageFault("drop", src=0, dst=2, tag=tag, count=count)])
        return Simulator(4, CRAY_T3D, faults=plan)

    sim = drop(1)
    assert run(sim) == clean
    assert sim.fault_journal.counts() == {"drop": 1, "lost": 1, "retransmit": 1}

    sim = drop(MAX_RETRANSMITS + 1)
    with pytest.raises(MessageLost):
        run(sim)
    assert sim.fault_journal.counts() == {
        "drop": MAX_RETRANSMITS + 1,
        "lost": MAX_RETRANSMITS + 1,
        "retransmit": MAX_RETRANSMITS,
    }
