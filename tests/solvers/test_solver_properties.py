"""Property-based tests for restarted GMRES."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilu import ilut
from repro.ilu.params import ILUTParams
from repro.matrices import random_diag_dominant
from repro.solvers import ILUPreconditioner, gmres


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(5, 40),
    seed=st.integers(0, 1000),
    restart=st.integers(2, 30),
)
def test_gmres_solves_diag_dominant(n, seed, restart):
    A = random_diag_dominant(n, 4, seed=seed, dominance=2.0)
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(n)
    res = gmres(A, A @ x_true, restart=restart, tol=1e-10, maxiter=50 * n)
    assert res.converged
    assert np.allclose(res.x, x_true, atol=1e-6 * max(1, np.abs(x_true).max()))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(5, 40), seed=st.integers(0, 1000))
def test_gmres_with_exact_preconditioner_one_iteration(n, seed):
    """With M = A^{-1} (no-drop ILUT), GMRES converges in one step."""
    A = random_diag_dominant(n, 4, seed=seed)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    M = ILUPreconditioner(ilut(A, ILUTParams(fill=n, threshold=0.0)))
    res = gmres(A, b, restart=5, tol=1e-8, M=M, maxiter=100)
    assert res.converged
    assert res.iterations <= 3  # one in exact arithmetic; slack for rounding


@settings(max_examples=10, deadline=None)
@given(n=st.integers(5, 30), seed=st.integers(0, 500))
def test_residual_reporting_consistent(n, seed):
    """final_residual always equals ||b - A x|| for the returned x."""
    A = random_diag_dominant(n, 4, seed=seed)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    rg = gmres(A, b, restart=10, maxiter=20)
    assert rg.final_residual == np.linalg.norm(b - A @ rg.x)
