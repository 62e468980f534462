"""Fault-plan determinism: the same plan must produce a
bit-identical fault journal, factors and modelled time — per backend,
and (for journals/factors) *across* the reference and vectorized
backends, since faults are scheduled against the backend-independent
superstep counter."""

import numpy as np
import pytest

from repro.faults import FaultPlan, MessageFault, RankFault
from repro.ilu import ILUTParams, parallel_ilut
from repro.matrices import poisson2d

PLAN_CASES = {
    "drop-urow": FaultPlan(message_faults=[MessageFault("drop", tag="urow")]),
    "drop-mis": FaultPlan(message_faults=[MessageFault("drop", tag="mis")]),
    "crash": FaultPlan(rank_faults=[RankFault("crash", rank=2, superstep=3)]),
    "crash+drop": FaultPlan(
        message_faults=[MessageFault("drop", tag="urow", skip=1)],
        rank_faults=[RankFault("crash", rank=1, superstep=2)],
    ),
}


def factor(plan, backend):
    A = poisson2d(12)
    return parallel_ilut(
        A, ILUTParams(fill=5, threshold=1e-4), 4, seed=0, faults=plan, backend=backend
    )


def assert_same_factors(a, b):
    assert np.array_equal(a.factors.L.data, b.factors.L.data)
    assert np.array_equal(a.factors.L.indices, b.factors.L.indices)
    assert np.array_equal(a.factors.U.data, b.factors.U.data)
    assert np.array_equal(a.factors.U.indices, b.factors.U.indices)
    assert np.array_equal(a.factors.perm, b.factors.perm)


@pytest.mark.parametrize("name", sorted(PLAN_CASES))
@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_replay_is_bit_identical(name, backend):
    plan = PLAN_CASES[name]
    r1 = factor(plan, backend)
    r2 = factor(plan, backend)
    assert r1.fault_journal.signature() == r2.fault_journal.signature()
    assert r1.fault_journal.signature()  # the plan actually fired
    assert_same_factors(r1, r2)
    assert r1.modeled_time == r2.modeled_time
    assert r1.recoveries == r2.recoveries


@pytest.mark.parametrize("name", sorted(PLAN_CASES))
def test_journal_and_factors_agree_across_backends(name):
    plan = PLAN_CASES[name]
    ref = factor(plan, "reference")
    vec = factor(plan, "vectorized")
    assert ref.fault_journal.signature() == vec.fault_journal.signature()
    assert_same_factors(ref, vec)
    assert ref.modeled_time == vec.modeled_time
    assert ref.recoveries == vec.recoveries


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_injected_crash_recovers_to_uninjected_factors(backend):
    clean = factor(None, backend)
    faulted = factor(PLAN_CASES["crash"], backend)
    assert faulted.recoveries >= 1
    assert_same_factors(clean, faulted)
    assert clean.num_levels == faulted.num_levels
