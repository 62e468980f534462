"""Unit tests for restarted GMRES."""

import numpy as np
import pytest

from repro.ilu import ilut
from repro.ilu.params import ILUTParams
from repro.matrices import convection_diffusion2d, poisson2d, random_diag_dominant
from repro.solvers import (
    DiagonalPreconditioner,
    ILUPreconditioner,
    IdentityPreconditioner,
    gmres,
)
from repro.sparse import CSRMatrix


class TestConvergence:
    def test_identity_system_converges_immediately(self):
        A = CSRMatrix.identity(10)
        b = np.arange(1.0, 11.0)
        res = gmres(A, b, restart=5)
        assert res.converged
        assert np.allclose(res.x, b)

    def test_spd_poisson(self, rng):
        A = poisson2d(12)
        x_true = rng.standard_normal(144)
        res = gmres(A, A @ x_true, restart=20, maxiter=3000)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-5)

    def test_nonsymmetric(self, rng):
        A = convection_diffusion2d(10)
        x_true = rng.standard_normal(100)
        res = gmres(A, A @ x_true, restart=20, maxiter=3000)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-5)

    def test_matches_scipy_gmres_iterate_count_ballpark(self, rng):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        A = poisson2d(10)
        b = rng.standard_normal(100)
        ours = gmres(A, b, restart=20, tol=1e-8, maxiter=2000)
        S = sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)
        x_ref, info = spla.gmres(S, b, restart=20, rtol=1e-10, maxiter=200)
        assert info == 0
        assert np.allclose(ours.x, x_ref, atol=1e-4)

    def test_zero_rhs(self):
        A = poisson2d(5)
        res = gmres(A, np.zeros(25))
        assert res.converged
        assert np.allclose(res.x, 0.0)
        assert res.num_matvec == 0

    def test_initial_guess_used(self, rng):
        A = poisson2d(8)
        x_true = rng.standard_normal(64)
        res = gmres(A, A @ x_true, x0=x_true.copy(), restart=10)
        assert res.converged
        assert res.iterations <= 1

    def test_callable_matvec(self, rng):
        A = poisson2d(8)
        b = rng.standard_normal(64)
        res = gmres(lambda v: A @ v, b, restart=20, maxiter=2000)
        assert res.converged


class TestPreconditioning:
    def test_ilut_cuts_iterations(self, rng):
        A = poisson2d(16)
        b = rng.standard_normal(256)
        plain = gmres(A, b, restart=20, maxiter=4000)
        pre = gmres(
            A, b, restart=20, maxiter=4000, M=ILUPreconditioner(ilut(A, ILUTParams(fill=10, threshold=1e-4)))
        )
        assert pre.converged
        assert pre.num_matvec < 0.5 * plain.num_matvec

    def test_diagonal_preconditioner_helps_scaled_system(self, rng):
        A = poisson2d(10)
        D = A.to_dense()
        scale = np.exp(rng.uniform(-3, 3, size=100))
        D = D * scale[:, None]
        B = CSRMatrix.from_dense(D)
        b = rng.standard_normal(100)
        plain = gmres(B, b, restart=20, maxiter=5000)
        pre = gmres(B, b, restart=20, maxiter=5000, M=DiagonalPreconditioner(B))
        assert pre.num_matvec <= plain.num_matvec

    def test_solution_unaffected_by_preconditioner(self, rng):
        A = poisson2d(10)
        x_true = rng.standard_normal(100)
        b = A @ x_true
        for M in (IdentityPreconditioner(), ILUPreconditioner(ilut(A, ILUTParams(fill=5, threshold=1e-3)))):
            res = gmres(A, b, restart=20, M=M, maxiter=3000)
            assert np.allclose(res.x, x_true, atol=1e-5)


class TestAccounting:
    def test_nmv_counts(self, rng):
        A = poisson2d(8)
        b = rng.standard_normal(64)
        res = gmres(A, b, restart=10, maxiter=500)
        # one matvec per inner iteration + one per restart residual
        assert res.num_matvec >= res.iterations

    def test_maxiter_respected(self, rng):
        A = poisson2d(12)
        b = rng.standard_normal(144)
        res = gmres(A, b, restart=5, maxiter=10, tol=1e-14)
        assert res.num_matvec <= 10
        assert not res.converged

    def test_residual_history_monotone_within_cycle(self, rng):
        A = poisson2d(10)
        b = rng.standard_normal(100)
        res = gmres(A, b, restart=30, maxiter=40)
        h = res.residual_norms
        # GMRES inner residuals are non-increasing
        assert all(h[i + 1] <= h[i] * (1 + 1e-10) for i in range(1, len(h) - 1))

    def test_final_residual_reported(self, rng):
        A = poisson2d(8)
        b = rng.standard_normal(64)
        res = gmres(A, b, restart=20, maxiter=2000)
        assert res.final_residual == pytest.approx(
            float(np.linalg.norm(b - A @ res.x)), rel=1e-6
        )

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            gmres(poisson2d(4), np.ones(16), restart=0)


class TestRestart:
    def test_small_restart_still_converges(self, rng):
        A = poisson2d(10)
        b = rng.standard_normal(100)
        res = gmres(A, b, restart=3, maxiter=5000)
        assert res.converged

    def test_larger_restart_fewer_nmv(self, rng):
        A = poisson2d(14)
        b = rng.standard_normal(196)
        small = gmres(A, b, restart=5, maxiter=5000)
        large = gmres(A, b, restart=50, maxiter=5000)
        assert large.num_matvec <= small.num_matvec
