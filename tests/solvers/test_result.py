"""The shared SolveResult hierarchy and the Preconditioner protocol."""

import numpy as np
import pytest

from repro import ILUTParams, poisson2d
from repro.ilu import ilut
from repro.solvers import (
    DiagonalPreconditioner,
    IdentityPreconditioner,
    ILUPreconditioner,
    Preconditioner,
    SolveResult,
    gmres,
    prepare_preconditioner,
)
from repro.solvers.result import GMRESResult

from ..ilu import _trisolve


@pytest.fixture(scope="module")
def system():
    A = poisson2d(10)
    b = A @ np.ones(A.shape[0])
    return A, b


class TestSolveResultShape:
    def test_every_solver_returns_a_solve_result(self, system):
        A, b = system
        res = gmres(A, b, restart=10)
        assert isinstance(res, SolveResult)
        assert res.x.shape == b.shape
        assert isinstance(res.converged, bool)
        assert res.iterations >= 0
        assert res.elapsed > 0.0
        assert res.residual_history, "history must include the initial norm"

    def test_subclass_types(self, system):
        A, b = system
        assert isinstance(gmres(A, b), GMRESResult)

    def test_residual_history_is_alias(self, system):
        A, b = system
        res = gmres(A, b)
        assert res.residual_history is res.residual_norms

    def test_counters_present(self, system):
        A, b = system
        g = gmres(A, b, restart=10)
        assert g.num_matvec > 0 and g.num_precond > 0
        assert g.breakdown is False

    def test_exact_initial_guess_short_circuits(self, system):
        A, b = system
        res = gmres(A, b, x0=np.ones(b.shape[0]))
        assert res.converged and res.iterations == 0
        assert res.elapsed >= 0.0


class TestPreconditionerProtocol:
    def test_base_setup_returns_self(self, system):
        p = Preconditioner()
        assert p.setup(system[0]) is p

    def test_base_apply_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Preconditioner().apply(np.ones(3))

    def test_base_flops_zero(self):
        assert Preconditioner().flops() == 0.0

    def test_call_delegates_to_apply(self):
        r = np.arange(3.0)
        assert np.array_equal(IdentityPreconditioner()(r), r)

    def test_diagonal_deferred_setup(self, system):
        A, b = system
        res = gmres(A, b, M=DiagonalPreconditioner())
        assert res.converged

    def test_diagonal_setup_idempotent(self, system):
        A, _ = system
        M = DiagonalPreconditioner().setup(A)
        inv = M._inv_diag
        assert M.setup(A) is M and M._inv_diag is inv

    def test_diagonal_apply_before_setup_raises(self):
        with pytest.raises(RuntimeError):
            DiagonalPreconditioner().apply(np.ones(3))

    def test_diagonal_flops(self, system):
        A, _ = system
        assert DiagonalPreconditioner(A).flops() == float(A.shape[0])

    def test_ilu_requires_factors_or_params(self):
        with pytest.raises(TypeError):
            ILUPreconditioner()

    def test_ilu_rejects_both(self, system):
        A, _ = system
        f = ilut(A, ILUTParams(fill=5, threshold=1e-3))
        with pytest.raises(TypeError):
            ILUPreconditioner(f, params=ILUTParams(fill=5, threshold=1e-3))

    def test_ilu_deferred_setup_through_gmres(self, system):
        A, b = system
        M = ILUPreconditioner(params=ILUTParams(fill=10, threshold=1e-4))
        res = gmres(A, b, restart=10, M=M)
        assert res.converged
        assert M.factors is not None

    def test_ilu_flops_formula(self, system):
        A, _ = system
        f = ilut(A, ILUTParams(fill=5, threshold=1e-3))
        n = f.n
        expected = float(2 * f.L.nnz + 2 * (f.U.nnz - n) + n)
        assert ILUPreconditioner(f).flops() == expected

    def test_ilu_fast_and_reference_agree(self, system):
        A, b = system
        f = ilut(A, ILUTParams(fill=10, threshold=1e-4))
        r = np.sin(np.arange(b.shape[0]))
        assert np.array_equal(ILUPreconditioner(f).apply(r), _trisolve.solve(f, r))


class TestPreparePreconditioner:
    def test_none_becomes_identity(self, system):
        M = prepare_preconditioner(None, system[0])
        assert isinstance(M, IdentityPreconditioner)

    def test_conformer_gets_setup(self, system):
        A, _ = system
        M = prepare_preconditioner(DiagonalPreconditioner(), A)
        assert M._inv_diag is not None

    def test_bare_apply_object_passes_through(self, system):
        class Bare:
            def apply(self, r):
                return r * 2.0

        bare = Bare()
        assert prepare_preconditioner(bare, system[0]) is bare

    def test_bare_callable_works_in_solver(self, system):
        A, b = system

        class Bare:
            def apply(self, r):
                return r.copy()

        res = gmres(A, b, M=Bare())
        assert res.converged
