"""Unit tests for the preconditioner interfaces."""

import numpy as np
import pytest

from repro.ilu import ilut
from repro.ilu.params import ILUTParams
from repro.matrices import poisson2d
from repro.solvers import (
    DiagonalPreconditioner,
    IdentityPreconditioner,
    ILUPreconditioner,
    Preconditioner,
)
from repro.sparse import CSRMatrix


class TestIdentity:
    def test_returns_copy(self):
        M = IdentityPreconditioner()
        r = np.arange(4.0)
        out = M.apply(r)
        assert np.array_equal(out, r)
        out[0] = 99
        assert r[0] == 0.0

    def test_callable(self):
        M = IdentityPreconditioner()
        assert np.array_equal(M(np.ones(3)), np.ones(3))


class TestDiagonal:
    def test_inverts_diagonal(self):
        A = CSRMatrix.from_dense(np.diag([2.0, 4.0]))
        M = DiagonalPreconditioner(A)
        assert np.allclose(M.apply(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_rejects_zero_diagonal(self):
        A = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            DiagonalPreconditioner(A)

    def test_exact_for_diagonal_system(self, rng):
        d = rng.uniform(1, 10, size=20)
        A = CSRMatrix.from_dense(np.diag(d))
        M = DiagonalPreconditioner(A)
        b = rng.standard_normal(20)
        assert np.allclose(A @ M.apply(b), b)


class TestILU:
    def test_wraps_factors(self, rng):
        A = poisson2d(8)
        f = ilut(A, ILUTParams(fill=5, threshold=1e-3))
        b = rng.standard_normal(64)
        # fast path agrees within rounding; slow path is bit-exact
        assert np.allclose(ILUPreconditioner(f).apply(b), f.solve(b), rtol=1e-12)
        assert np.array_equal(ILUPreconditioner(f, fast=False).apply(b), f.solve(b))

    def test_exact_factorization_gives_exact_solve(self, rng):
        from repro.matrices import random_diag_dominant

        A = random_diag_dominant(30, 4, seed=1)
        M = ILUPreconditioner(ilut(A, ILUTParams(fill=30, threshold=0.0)))
        b = rng.standard_normal(30)
        assert np.allclose(A @ M.apply(b), b, atol=1e-8)


class TestBase:
    def test_base_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Preconditioner().apply(np.ones(2))
