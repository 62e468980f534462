"""Unit tests for BiCGSTAB."""

import numpy as np
import pytest

from repro.ilu import ilut
from repro.ilu.params import ILUTParams
from repro.matrices import convection_diffusion2d, poisson2d
from repro.solvers import ILUPreconditioner, bicgstab
from repro.sparse import CSRMatrix


class TestConvergence:
    def test_spd(self, rng):
        A = poisson2d(12)
        x_true = rng.standard_normal(144)
        res = bicgstab(A, A @ x_true, maxiter=2000)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-4)

    def test_nonsymmetric(self, rng):
        A = convection_diffusion2d(12, bx=40.0, by=20.0)
        x_true = rng.standard_normal(144)
        res = bicgstab(A, A @ x_true, maxiter=2000)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-4)

    def test_zero_rhs(self):
        A = poisson2d(5)
        res = bicgstab(A, np.zeros(25))
        assert res.converged and res.num_matvec == 0

    def test_initial_guess(self, rng):
        A = poisson2d(8)
        x_true = rng.standard_normal(64)
        res = bicgstab(A, A @ x_true, x0=x_true.copy())
        assert res.converged and res.iterations <= 1

    def test_callable_matvec(self, rng):
        A = poisson2d(8)
        b = rng.standard_normal(64)
        res = bicgstab(lambda v: A @ v, b, maxiter=2000)
        assert res.converged

    def test_maxiter(self, rng):
        A = poisson2d(14)
        res = bicgstab(A, rng.standard_normal(196), maxiter=2, tol=1e-14)
        assert not res.converged
        assert res.iterations <= 2


class TestPreconditioning:
    def test_ilut_reduces_matvecs(self, rng):
        A = convection_diffusion2d(16)
        b = rng.standard_normal(256)
        plain = bicgstab(A, b, maxiter=4000)
        pre = bicgstab(A, b, M=ILUPreconditioner(ilut(A, ILUTParams(fill=10, threshold=1e-4))), maxiter=4000)
        assert pre.converged
        assert pre.num_matvec < plain.num_matvec

    def test_solution_accuracy_with_preconditioner(self, rng):
        A = poisson2d(10)
        x_true = rng.standard_normal(100)
        res = bicgstab(
            A, A @ x_true, M=ILUPreconditioner(ilut(A, ILUTParams(fill=5, threshold=1e-3))), maxiter=2000
        )
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-5)


class TestBreakdown:
    def test_breakdown_flagged(self):
        # r0_hat ⟂ r after one step: engineered by a rotation-like matrix
        A = CSRMatrix.from_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        res = bicgstab(A, np.array([1.0, 0.0]), maxiter=10)
        assert res.breakdown or res.converged

    def test_residual_history_recorded(self, rng):
        A = poisson2d(8)
        res = bicgstab(A, rng.standard_normal(64), maxiter=100)
        assert len(res.residual_norms) >= 2
        assert res.final_residual == pytest.approx(
            res.residual_norms[-1], rel=1e-6, abs=1e-12
        )
