"""Property-based tests: the parallel triangular solve equals the
sequential reference for arbitrary factorizations and right-hand sides."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilu import parallel_ilut, parallel_ilut_star, parallel_triangular_solve
from repro.ilu.params import ILUTParams
from repro.matrices import random_diag_dominant


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(12, 45),
    p=st.integers(1, 5),
    m=st.integers(1, 8),
    seed=st.integers(0, 100),
)
def test_parallel_trisolve_matches_reference(n, p, m, seed):
    A = random_diag_dominant(n, 4, seed=seed)
    p = min(p, n)
    r = parallel_ilut(A, ILUTParams(fill=m, threshold=1e-3), p, seed=seed, transport="none")
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    out = parallel_triangular_solve(r.factors, b, transport="none")
    assert np.allclose(out.x, r.factors.solve(b), rtol=1e-10, atol=1e-12)


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(12, 45),
    p=st.integers(2, 5),
    k=st.integers(1, 3),
    seed=st.integers(0, 100),
)
def test_ilutstar_trisolve_matches_reference(n, p, k, seed):
    A = random_diag_dominant(n, 4, seed=seed)
    p = min(p, n)
    r = parallel_ilut_star(A, ILUTParams(fill=4, threshold=1e-4, k=k), p, seed=seed, transport="none")
    rng = np.random.default_rng(seed + 1)
    b = rng.standard_normal(n)
    out = parallel_triangular_solve(r.factors, b, transport="none")
    assert np.allclose(out.x, r.factors.solve(b), rtol=1e-10, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(12, 40), p=st.integers(1, 4), seed=st.integers(0, 60))
def test_solve_is_linear_operator(n, p, seed):
    """M^{-1} is linear: solve(a x + y) == a solve(x) + solve(y)."""
    A = random_diag_dominant(n, 4, seed=seed)
    p = min(p, n)
    f = parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3), p, seed=seed, transport="none").factors
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    assert np.allclose(
        f.solve(2.5 * x + y), 2.5 * f.solve(x) + f.solve(y), rtol=1e-9, atol=1e-10
    )


@settings(max_examples=10, deadline=None)
@given(n=st.integers(12, 40), seed=st.integers(0, 60))
def test_exact_factors_invert_matrix(n, seed):
    """With no dropping, solve(A x) == x for any x."""
    A = random_diag_dominant(n, 4, seed=seed)
    f = parallel_ilut(A, ILUTParams(fill=n, threshold=0.0), min(3, n), seed=seed, transport="none").factors
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    assert np.allclose(f.solve(A @ x), x, rtol=1e-7, atol=1e-8)
