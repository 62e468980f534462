"""Unit tests for preconditioned CG."""

import numpy as np
import pytest

from repro.ilu import ilut
from repro.ilu.params import ILUTParams
from repro.matrices import poisson2d
from repro.solvers import DiagonalPreconditioner, ILUPreconditioner, cg


class TestConvergence:
    def test_spd_poisson(self, rng):
        A = poisson2d(12)
        x_true = rng.standard_normal(144)
        res = cg(A, A @ x_true, maxiter=2000)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-5)

    def test_zero_rhs(self):
        A = poisson2d(6)
        res = cg(A, np.zeros(36))
        assert res.converged and res.iterations == 0

    def test_initial_guess(self, rng):
        A = poisson2d(8)
        x_true = rng.standard_normal(64)
        res = cg(A, A @ x_true, x0=x_true.copy())
        assert res.converged and res.iterations <= 1

    def test_cg_iterations_scale_with_grid(self):
        its = [cg(poisson2d(nx), np.ones(nx * nx), maxiter=5000).iterations for nx in (8, 16)]
        assert its[1] > its[0]  # condition number grows with grid size

    def test_maxiter(self, rng):
        A = poisson2d(12)
        res = cg(A, rng.standard_normal(144), maxiter=3, tol=1e-14)
        assert not res.converged
        assert res.iterations == 3


class TestPreconditioning:
    def test_diagonal_preconditioner_runs(self, rng):
        A = poisson2d(10)
        b = rng.standard_normal(100)
        res = cg(A, b, M=DiagonalPreconditioner(A), maxiter=2000)
        assert res.converged

    def test_ic_like_ilut_cuts_iterations(self, rng):
        A = poisson2d(16)
        b = rng.standard_normal(256)
        plain = cg(A, b, maxiter=4000)
        pre = cg(A, b, M=ILUPreconditioner(ilut(A, ILUTParams(fill=10, threshold=1e-4))), maxiter=4000)
        assert pre.converged
        assert pre.iterations < plain.iterations

    def test_residual_history_recorded(self, rng):
        A = poisson2d(8)
        res = cg(A, rng.standard_normal(64), maxiter=500)
        assert len(res.residual_norms) == res.iterations + 1

    def test_non_spd_direction_detected(self):
        from repro.sparse import CSRMatrix

        A = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, -1.0]]))
        res = cg(A, np.array([0.0, 1.0]), maxiter=10)
        assert not res.converged
