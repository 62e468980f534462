"""Property-based corruption tests (hypothesis): for a random CSR
system with one randomly corrupted factor entry, a guarded
preconditioner apply either raises the typed NaN/Inf error or returns
an all-finite vector — corruption can never silently escape the apply
boundary."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilu import ILUTParams, ilut
from repro.resilience import (
    NonFiniteError,
    NumericalBreakdown,
    RobustPreconditioner,
    assert_finite,
)
from repro.solvers import DiagonalPreconditioner, ILUPreconditioner
from repro.sparse import CSRMatrix


@st.composite
def csr_systems(draw):
    """Small random diagonally-dominant CSR matrix + dense rhs."""
    n = draw(st.integers(4, 16))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, n)) < 0.3, rng.standard_normal((n, n)), 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return CSRMatrix.from_dense(dense), rng.standard_normal(n)


CORRUPTIONS = st.sampled_from(["nan", "inf", "-inf", "huge", "zero"])


def _poison(value: str, rng: np.random.Generator) -> float:
    return {
        "nan": float("nan"),
        "inf": float("inf"),
        "-inf": float("-inf"),
        "huge": 1e308,
        "zero": 0.0,
    }[value]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/nan arithmetic is the point
@settings(max_examples=60, deadline=None)
@given(csr_systems(), CORRUPTIONS, st.integers(0, 2**31 - 1))
def test_guarded_apply_detects_or_stays_finite(system, corruption, pick_seed):
    A, r = system
    factors = ilut(A, ILUTParams(fill=A.shape[0], threshold=0.0))
    rng = np.random.default_rng(pick_seed)
    target = factors.U if rng.random() < 0.5 else factors.L
    if target.data.size == 0:
        target = factors.U  # L can be empty for tiny/diagonal systems
    idx = int(rng.integers(target.data.size))
    target.data[idx] = _poison(corruption, rng)

    M = ILUPreconditioner(factors, guard=True)
    try:
        out = M.apply(r)
    except NumericalBreakdown as err:
        # typed detection: NonFiniteError at the apply boundary, or
        # ZeroPivotError from the triangular solve on a zeroed diagonal
        assert 0 <= err.row < A.shape[0]
    else:
        assert np.all(np.isfinite(out))


@settings(max_examples=40, deadline=None)
@given(csr_systems(), st.integers(0, 2**31 - 1))
def test_fallback_chain_survives_nan_poisoning(system, pick_seed):
    A, r = system
    factors = ilut(A, ILUTParams(fill=A.shape[0], threshold=0.0))
    rng = np.random.default_rng(pick_seed)
    idx = int(rng.integers(factors.U.data.size))
    factors.U.data[idx] = np.nan

    M = RobustPreconditioner(
        [ILUPreconditioner(factors), DiagonalPreconditioner()]
    ).setup(A)
    out = M.apply(r)
    assert np.all(np.isfinite(out))
    if M.failure_report:
        # the poisoned tier was detected at the probe, not silently used
        assert M.failure_report.records[0].error_type == "NonFiniteError"
        assert isinstance(M.active, DiagonalPreconditioner)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        min_size=1,
        max_size=64,
    )
)
def test_assert_finite_is_exact(values):
    x = np.asarray(values, dtype=np.float64)
    if np.all(np.isfinite(x)):
        assert assert_finite(x) is x
    else:
        first_bad = int(np.flatnonzero(~np.isfinite(x))[0])
        try:
            assert_finite(x)
        except NonFiniteError as err:
            assert err.row == first_bad
        else:
            raise AssertionError("guard missed a non-finite entry")
