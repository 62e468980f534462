"""Crash recovery by region retry, driver-level retry, and the typed
breakdown errors at their historical raise sites."""

import numpy as np
import pytest

from repro.faults import FaultPlan, MessageFault, RankFault
from repro.ilu import ILUTParams, parallel_ilut, parallel_ilut_star
from repro.matrices import poisson2d
from repro.resilience import RetryPolicy, ZeroPivotError
from repro.solvers import parallel_solve
from repro.sparse import CSRMatrix


class TestCheckpointRestart:
    """Recovery inside a factorization: region retry after a crash,
    retransmission after a drop — there is no engine checkpoint."""

    def params(self):
        return ILUTParams(fill=5, threshold=1e-4)

    def test_crash_recovers_bit_identical(self):
        A = poisson2d(12)
        clean = parallel_ilut(A, self.params(), 4, seed=0)
        plan = FaultPlan(rank_faults=[RankFault("crash", rank=2, superstep=4)])
        faulted = parallel_ilut(A, self.params(), 4, seed=0, faults=plan)
        assert faulted.recoveries == 1
        assert faulted.fault_journal.counts() == {"crash": 1, "region-retry": 1}
        assert np.array_equal(clean.factors.L.data, faulted.factors.L.data)
        assert np.array_equal(clean.factors.U.data, faulted.factors.U.data)
        assert np.array_equal(clean.factors.perm, faulted.factors.perm)
        assert clean.num_levels == faulted.num_levels

    def test_two_crashes_two_recoveries(self):
        """Crashes armed for different regions are two retries; the
        supersteps are chosen so they do not land in one region."""
        A = poisson2d(12)
        plan = FaultPlan(
            rank_faults=[
                RankFault("crash", rank=1, superstep=2),
                RankFault("crash", rank=3, superstep=12),
            ]
        )
        clean = parallel_ilut(A, self.params(), 4, seed=0)
        faulted = parallel_ilut(A, self.params(), 4, seed=0, faults=plan)
        assert faulted.recoveries == 2
        crashes = [e.superstep for e in faulted.fault_journal if e.kind == "crash"]
        assert len(crashes) == 2 and crashes[0] != crashes[1]
        assert np.array_equal(clean.factors.U.data, faulted.factors.U.data)

    def test_star_variant_recovers_too(self):
        A = poisson2d(12)
        params = ILUTParams(fill=5, threshold=1e-4, k=2)
        plan = FaultPlan(rank_faults=[RankFault("crash", rank=2, superstep=3)])
        clean = parallel_ilut_star(A, params, 4, seed=0)
        faulted = parallel_ilut_star(A, params, 4, seed=0, faults=plan)
        assert faulted.recoveries >= 1
        assert np.array_equal(clean.factors.U.data, faulted.factors.U.data)

    def test_dropped_message_retransmitted(self):
        A = poisson2d(12)
        plan = FaultPlan(message_faults=[MessageFault("drop", tag="urow")])
        clean = parallel_ilut(A, self.params(), 4, seed=0)
        faulted = parallel_ilut(A, self.params(), 4, seed=0, faults=plan)
        counts = faulted.fault_journal.counts()
        assert counts["drop"] == 1 and counts["retransmit"] == 1
        assert np.array_equal(clean.factors.U.data, faulted.factors.U.data)

    def test_no_faults_means_no_journal(self):
        A = poisson2d(10)
        res = parallel_ilut(A, self.params(), 2, seed=0)
        assert res.fault_journal is None and res.recoveries == 0

    def test_faults_require_simulation(self):
        A = poisson2d(10)
        plan = FaultPlan(message_faults=[MessageFault("drop")])
        with pytest.raises(ValueError, match="requires the simulator transport"):
            parallel_ilut(A, self.params(), 2, transport="none", faults=plan)


class TestDriverResilience:
    def test_parallel_solve_with_faults(self):
        A = poisson2d(12)
        b = A @ np.ones(A.shape[0])
        plan = FaultPlan(rank_faults=[RankFault("crash", rank=2, superstep=3)])
        rep = parallel_solve(A, b, 4, m=5, t=1e-4, retry=RetryPolicy(), faults=plan)
        assert rep.converged
        assert rep.recoveries == 1
        assert rep.fault_journal.counts()["crash"] == 1
        baseline = parallel_solve(A, b, 4, m=5, t=1e-4)
        assert np.array_equal(rep.x, baseline.x)
        assert baseline.recoveries == 0 and baseline.fault_journal is None

    def test_retry_relaxes_after_breakdown(self):
        calls = []

        class Flaky:
            threshold = 1e-4

            def relaxed(self, factor):
                out = Flaky()
                out.threshold = self.threshold * factor
                return out

        def action(p):
            calls.append(p.threshold)
            if len(calls) == 1:
                raise ZeroPivotError("zero pivot at row 0", row=0, value=0.0)
            return "factors"

        result, report = RetryPolicy(max_attempts=2).run(action, Flaky())
        assert result == "factors"
        assert calls == pytest.approx([1e-4, 1e-3])
        assert len(report.records) == 1


class TestTypedBreakdowns:
    def zero_diag_matrix(self):
        d = CSRMatrix.identity(6).to_dense()
        d[3, 3] = 0.0
        d[3, 4] = 1.0  # keep the row structurally non-empty
        return CSRMatrix.from_dense(d)

    def test_diagonal_preconditioner_raises_typed(self):
        from repro.resilience import ZeroDiagonalError
        from repro.solvers import DiagonalPreconditioner

        A = self.zero_diag_matrix()
        with pytest.raises(ZeroDiagonalError) as exc:
            DiagonalPreconditioner(A)
        assert exc.value.row == 3
        with pytest.raises(ValueError):  # legacy family preserved
            DiagonalPreconditioner(A)


class TestRelaxedParams:
    def test_threshold_scales_fill_preserved(self):
        p = ILUTParams(fill=7, threshold=1e-4, k=2)
        r = p.relaxed(10.0)
        assert r.threshold == pytest.approx(1e-3)
        assert r.fill == 7 and r.k == 2

    def test_zero_threshold_gets_a_floor(self):
        r = ILUTParams(fill=7, threshold=0.0).relaxed(10.0)
        assert r.threshold > 0.0

    def test_factor_must_relax(self):
        with pytest.raises(ValueError):
            ILUTParams(fill=7, threshold=1e-4).relaxed(1.0)
