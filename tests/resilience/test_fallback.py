"""Fallback chain, retry policy and their integration with the solvers."""

import numpy as np
import pytest

from repro.ilu import ILUTParams, ilut
from repro.matrices import poisson2d
from repro.resilience import (
    FailureReport,
    FallbackExhausted,
    NonFiniteError,
    RetryPolicy,
    RobustPreconditioner,
)
from repro.solvers import (
    DiagonalPreconditioner,
    ILU0Preconditioner,
    ILUPreconditioner,
    SweepPreconditioner,
    bicgstab,
    gmres,
)


def corrupted_ilut(A):
    """ILUT factors with one NaN poisoned into U (setup succeeds, apply
    is non-finite — only the probe can catch it)."""
    f = ilut(A, ILUTParams(fill=5, threshold=1e-3))
    f.U.data[f.U.indptr[f.n // 2]] = np.nan
    return ILUPreconditioner(f)


class TestRobustPreconditioner:
    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="non-empty chain"):
            RobustPreconditioner([])

    def test_healthy_first_candidate_wins(self, small_poisson):
        M = RobustPreconditioner.default_chain().setup(small_poisson)
        assert M.active is M.chain[0]
        assert not M.failure_report  # empty report is falsy
        assert "no failures" in M.failure_report.summary()

    def test_probe_catches_corrupt_factors(self, small_poisson):
        M = RobustPreconditioner(
            [corrupted_ilut(small_poisson), ILU0Preconditioner()]
        ).setup(small_poisson)
        assert isinstance(M.active, ILU0Preconditioner)
        (rec,) = M.failure_report.records
        assert rec.error_type == "NonFiniteError"
        out = M.apply(np.ones(small_poisson.shape[0]))
        assert np.all(np.isfinite(out))

    def test_exhausted_chain_raises(self, small_poisson):
        with pytest.raises(FallbackExhausted, match="fallback chain"):
            RobustPreconditioner(
                [corrupted_ilut(small_poisson), corrupted_ilut(small_poisson)]
            ).setup(small_poisson)

    def test_guarded_apply_detects_late_corruption(self, small_poisson):
        from repro.kernels.triangular import clear_schedule_cache

        M = RobustPreconditioner([ILU0Preconditioner()]).setup(small_poisson)
        M.active.factors.U.data[0] = np.nan
        # the cached schedules were built from the clean probe
        clear_schedule_cache()
        with pytest.raises(NonFiniteError):
            M.apply(np.ones(small_poisson.shape[0]))

    def test_apply_before_setup_rejected(self):
        with pytest.raises(RuntimeError, match="not set up"):
            RobustPreconditioner([ILU0Preconditioner()]).apply(np.ones(4))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(relax_factor=1.0)

    def test_schedule_relaxes_threshold(self):
        policy = RetryPolicy(max_attempts=3, relax_factor=10.0)
        ts = [p.threshold for p in policy.schedule(ILUTParams(5, 1e-4))]
        assert ts == pytest.approx([1e-4, 1e-3, 1e-2])

    def test_first_attempt_success_records_nothing(self):
        policy = RetryPolicy()
        result, report = policy.run(lambda p: p.threshold, ILUTParams(5, 1e-4))
        assert result == 1e-4
        assert not report.records and report.succeeded.startswith("attempt 1")

    def test_retries_until_success(self):
        policy = RetryPolicy(max_attempts=3)
        calls = []

        def flaky(p):
            calls.append(p.threshold)
            if len(calls) < 3:
                raise NonFiniteError("nan in factor", row=5)
            return "ok"

        result, report = policy.run(flaky, ILUTParams(5, 1e-4))
        assert result == "ok" and len(calls) == 3
        assert len(report.records) == 2
        assert report.records[0].row == 5
        assert "attempt 3" in report.succeeded

    def test_exhaustion_chains_last_error(self):
        policy = RetryPolicy(max_attempts=2)

        def always(p):
            raise NonFiniteError("nope")

        with pytest.raises(FallbackExhausted, match="2 attempt"):
            policy.run(always, ILUTParams(5, 1e-4))


class TestSolverIntegration:
    def test_gmres_reports_fallback(self, small_poisson):
        A = small_poisson
        b = A @ np.ones(A.shape[0])
        M = RobustPreconditioner(
            [corrupted_ilut(A), ILU0Preconditioner(), DiagonalPreconditioner()]
        )
        res = gmres(A, b, M=M)
        assert res.converged
        assert res.failure_report is M.failure_report
        assert res.failure_report.records[0].error_type == "NonFiniteError"
        assert "ILU0" in res.failure_report.succeeded
        assert np.allclose(res.x, 1.0, atol=1e-5)

    def test_bicgstab_carries_report(self, small_poisson):
        A = small_poisson
        b = A @ np.ones(A.shape[0])
        res = bicgstab(A, b, M=RobustPreconditioner.default_chain())
        assert res.converged
        assert isinstance(res.failure_report, FailureReport)

    def test_default_chain_tiers(self, small_poisson):
        M = RobustPreconditioner.default_chain(ILUTParams(fill=5, threshold=1e-3))
        assert isinstance(M.chain[0], ILUPreconditioner)
        assert isinstance(M.chain[1], ILUPreconditioner)
        assert M.chain[1].params.threshold > M.chain[0].params.threshold
        assert isinstance(M.chain[2], ILU0Preconditioner)
        assert isinstance(M.chain[3], DiagonalPreconditioner)

    def test_plain_preconditioner_has_no_report(self, small_poisson):
        A = small_poisson
        res = gmres(A, A @ np.ones(A.shape[0]), M=SweepPreconditioner(A))
        assert res.failure_report is None


class TestGMRESBreakdownFlag:
    def test_happy_breakdown_flagged(self):
        from repro.sparse import CSRMatrix

        # Krylov space of (I, e0) is 1-dimensional and the arithmetic is
        # exact (unit basis vector): the first Arnoldi step collapses
        # H[1,0] to an exact zero and the exact solution pops out.
        A = CSRMatrix.identity(8)
        b = np.zeros(8)
        b[0] = 1.0
        res = gmres(A, b, restart=4)
        assert res.converged and res.breakdown
        assert np.allclose(res.x, b)

    def test_healthy_solve_not_flagged(self, small_poisson):
        A = small_poisson
        res = gmres(A, A @ np.ones(A.shape[0]), restart=20, maxiter=3000)
        assert res.converged and not res.breakdown
