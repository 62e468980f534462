"""Worker supervision: failure taxonomy, deadlines, region retry (§14).

Pins the contract of the supervision layer on both real transports:
worker death / hang / unpicklable result surface as *typed* errors
naming the rank (never an indefinite hang), only that taxonomy triggers
the bounded region retry, and a recovered region reproduces the
undisturbed bits because thunks are pure (read-shared / write-own).
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.faults import FaultPlan, MessageFault, RankFault, unportable_faults
from repro.ilu import ILUTParams, parallel_ilut
from repro.machine import (
    CRAY_T3D,
    ProcessTransport,
    ResultUnpicklable,
    Simulator,
    SupervisionPolicy,
    ThreadTransport,
    TransportCapabilityError,
    TransportError,
    TransportWorkerError,
    WorkerCrashed,
    WorkerHung,
    resolve_transport,
)
from repro.matrices import poisson2d

# fail fast in tests: first supervised failure surfaces immediately
NO_RETRY = SupervisionPolicy(deadline=5.0, poll_interval=0.01, region_retries=0)
FAST = SupervisionPolicy(deadline=0.3, poll_interval=0.01, region_retries=0)


def _thunks(n, special=None):
    """n trivial thunks, with per-rank overrides (``special={1: fn}``)."""
    special = special or {}
    return [special.get(r, lambda r=r: r) for r in range(n)]


class TestProcessFailureClassification:
    def test_plain_exit_reports_exitcode_and_rank(self):
        with ProcessTransport(2, supervision=NO_RETRY) as tt:
            with pytest.raises(WorkerCrashed) as ei:
                tt.pardo(_thunks(2, {1: lambda: os._exit(3)}))
        assert ei.value.rank == 1
        assert ei.value.exitcode == 3
        assert ei.value.signum is None
        assert "rank 1" in str(ei.value)

    def test_signal_death_reports_signal_name(self):
        def suicide():
            os.kill(os.getpid(), signal.SIGKILL)

        with ProcessTransport(2, supervision=NO_RETRY) as tt:
            with pytest.raises(WorkerCrashed) as ei:
                tt.pardo(_thunks(2, {1: suicide}))
        assert ei.value.rank == 1
        assert ei.value.exitcode == -signal.SIGKILL
        assert ei.value.signum == signal.SIGKILL
        assert "SIGKILL" in str(ei.value)

    def test_unpicklable_result_carries_remote_traceback(self):
        with ProcessTransport(2, supervision=NO_RETRY) as tt:
            with pytest.raises(ResultUnpicklable) as ei:
                tt.pardo(_thunks(2, {1: lambda: (lambda: None)}))
        assert ei.value.rank == 1
        assert "rank 1" in str(ei.value)
        assert "Traceback" in ei.value.remote_traceback

    def test_application_error_not_retried_and_keeps_traceback(self):
        def boom():
            raise ValueError("boom in the worker")

        with ProcessTransport(2) as tt:  # default policy: retries armed
            with pytest.raises(TransportWorkerError) as ei:
                tt.pardo(_thunks(2, {1: boom}))
            # app errors surface immediately: no region retry burned
            assert tt.region_recoveries == 0
            assert not isinstance(
                ei.value, (WorkerCrashed, WorkerHung, ResultUnpicklable)
            )
            assert "rank 1" in str(ei.value)
            assert "ValueError" in str(ei.value)
            assert "boom in the worker" in str(ei.value)
            # the transport survives an application failure
            assert tt.pardo(_thunks(2)) == [0, 1]

    def test_hang_detected_within_deadline_names_rank(self):
        with ProcessTransport(2, supervision=FAST) as tt:
            t0 = time.perf_counter()
            with pytest.raises(WorkerHung) as ei:
                tt.pardo(_thunks(2, {1: lambda: time.sleep(30.0)}))
            elapsed = time.perf_counter() - t0
        assert ei.value.rank == 1
        assert "rank 1" in str(ei.value)
        assert ei.value.deadline == FAST.deadline
        # detection is deadline-bounded, nowhere near the 30s sleep
        assert elapsed < 5.0

    def test_heartbeats_keep_a_slow_worker_alive(self):
        policy = SupervisionPolicy(
            deadline=0.4, poll_interval=0.01, heartbeat_interval=0.01,
            region_retries=0,
        )

        def slow_but_alive(tt):
            def thunk():
                for _ in range(12):  # 1.2s total: far past the 0.4s deadline
                    time.sleep(0.1)
                    tt.heartbeat()
                return "done"

            return thunk

        with ProcessTransport(2, supervision=policy) as tt:
            res = tt.pardo(_thunks(2, {1: slow_but_alive(tt)}))
        assert res[1] == "done"


class TestThreadFailureClassification:
    def test_non_exception_raise_classified_as_crash(self):
        def die():
            raise KeyboardInterrupt("worker interrupted")

        with ThreadTransport(2, supervision=NO_RETRY) as tt:
            with pytest.raises(WorkerCrashed) as ei:
                tt.pardo(_thunks(2, {1: die}))
        assert ei.value.rank == 1
        assert "KeyboardInterrupt" in ei.value.remote_traceback

    def test_application_error_reraised_not_retried(self):
        def boom():
            raise ValueError("app bug")

        with ThreadTransport(2) as tt:
            with pytest.raises(ValueError, match="app bug"):
                tt.pardo(_thunks(2, {1: boom}))
            assert tt.region_recoveries == 0

    def test_hang_detected_and_transport_survives(self):
        with ThreadTransport(2, supervision=FAST) as tt:
            t0 = time.perf_counter()
            with pytest.raises(WorkerHung) as ei:
                tt.pardo(_thunks(2, {1: lambda: time.sleep(1.0)}))
            assert time.perf_counter() - t0 < 5.0
            assert ei.value.rank == 1
            # the hung worker was abandoned and replaced: next region works
            assert tt.pardo(_thunks(2)) == [0, 1]
            time.sleep(1.0)  # let the abandoned sleeper drain before close

    def test_heartbeats_keep_a_slow_worker_alive(self):
        policy = SupervisionPolicy(deadline=0.4, poll_interval=0.01, region_retries=0)

        def slow_but_alive(tt):
            def thunk():
                for _ in range(12):
                    time.sleep(0.1)
                    tt.heartbeat()
                return "done"

            return thunk

        with ThreadTransport(2, supervision=policy) as tt:
            res = tt.pardo(_thunks(2, {1: slow_but_alive(tt)}))
        assert res[1] == "done"

    def test_close_warns_and_marks_unusable_when_worker_stuck(self):
        tt = ThreadTransport(2, supervision=FAST)
        tt.close_join_timeout = 0.1
        with pytest.raises(WorkerHung):
            tt.pardo(_thunks(2, {1: lambda: time.sleep(1.5)}))
        with pytest.warns(RuntimeWarning, match=r"rank\(s\) \[1\]"):
            tt.close()
        assert tt._stuck_ranks == [1]
        with pytest.raises(TransportError, match=r"rank\(s\) \[1\]"):
            tt.pardo(_thunks(2))
        time.sleep(1.5)  # drain the daemon sleeper before the next test


class TestRegionRetry:
    def test_retry_budget_exhaustion_raises_last_failure(self):
        policy = SupervisionPolicy(deadline=5.0, poll_interval=0.01, region_retries=1)
        with ProcessTransport(2, supervision=policy) as tt:
            with pytest.raises(WorkerCrashed) as ei:
                # deterministic crash: fails on the retry too
                tt.pardo(_thunks(2, {1: lambda: os._exit(1)}))
            assert ei.value.rank == 1
            assert tt.region_recoveries == 1  # one retry burned before raising

    @pytest.mark.parametrize("cls", [ThreadTransport, ProcessTransport])
    def test_injected_crash_recovers_with_journal(self, cls):
        plan = FaultPlan(rank_faults=[RankFault("crash", rank=1, superstep=0)])
        with cls(2, faults=plan) as tt:
            res = tt.pardo(_thunks(2))
        assert res == [0, 1]
        assert tt.region_recoveries == 1
        assert tt.fault_journal is not None
        assert tt.fault_journal.counts() == {"crash": 1, "region-retry": 1}

    @pytest.mark.parametrize("cls", [ThreadTransport, ProcessTransport])
    def test_injected_corrupt_result_recovers(self, cls):
        plan = FaultPlan(message_faults=[MessageFault("corrupt", src=1)])
        with cls(2, faults=plan) as tt:
            res = tt.pardo(_thunks(2))
        assert res == [0, 1]
        assert tt.region_recoveries == 1
        assert tt.fault_journal.counts() == {"corrupt": 1, "region-retry": 1}

    @pytest.mark.parametrize("cls", [ThreadTransport, ProcessTransport])
    def test_injected_stall_past_deadline_recovers(self, cls):
        policy = SupervisionPolicy(deadline=0.3, poll_interval=0.01)
        plan = FaultPlan(
            rank_faults=[RankFault("stall", rank=1, superstep=0, stall=1.0)]
        )
        with cls(2, supervision=policy, faults=plan) as tt:
            res = tt.pardo(_thunks(2))
            assert res == [0, 1]
            assert tt.region_recoveries == 1
            counts = tt.fault_journal.counts()
            assert counts["stall"] == 1 and counts["region-retry"] == 1
            time.sleep(1.0)  # threads: let the abandoned sleeper drain

    def test_counters_rolled_back_across_retry(self):
        plan = FaultPlan(rank_faults=[RankFault("crash", rank=1, superstep=0)])
        with ProcessTransport(2, faults=plan) as faulted, ProcessTransport(2) as clean:
            for tt in (faulted, clean):
                # thunks may not charge: the charges follow the region,
                # in coordinator context, from what the thunks returned
                for r in tt.pardo(_thunks(2)):
                    tt.compute(r, 100.0)
            assert faulted.region_recoveries == 1 and clean.region_recoveries == 0
            # the crashed attempt left nothing behind in the accounting
            assert faulted.stats().total_flops == clean.stats().total_flops
            assert faulted.stats().barriers == clean.stats().barriers
            assert faulted.stats() == clean.stats()
            assert faulted.elapsed() == clean.elapsed()


class TestDriverRecoveryBitIdentity:
    @pytest.mark.parametrize("transport", ["threads", "processes"])
    def test_parallel_ilut_crash_recovery_matches_all_oracles(self, transport):
        A = poisson2d(12)
        params = ILUTParams(fill=5, threshold=1e-4)
        oracle = parallel_ilut(A, params, 4, seed=0)  # simulator reference
        base = parallel_ilut(A, params, 4, seed=0, transport=transport)
        plan = FaultPlan(rank_faults=[RankFault("crash", rank=2, superstep=3)])
        res = parallel_ilut(A, params, 4, seed=0, transport=transport, faults=plan)
        assert res.recoveries == 1
        assert res.fault_journal.counts() == {"crash": 1, "region-retry": 1}
        for other in (base, oracle):
            assert np.array_equal(res.factors.L.data, other.factors.L.data)
            assert np.array_equal(res.factors.L.indices, other.factors.L.indices)
            assert np.array_equal(res.factors.U.data, other.factors.U.data)
            assert np.array_equal(res.factors.U.indices, other.factors.U.indices)
            assert np.array_equal(res.factors.perm, other.factors.perm)
        assert res.comm.messages == base.comm.messages
        assert res.comm.total_flops == base.comm.total_flops


class TestPortabilityGate:
    def test_unportable_faults_lists_offenders(self):
        plan = FaultPlan(
            message_faults=[
                MessageFault("drop"),
                MessageFault("delay", delay=1.0),
                MessageFault("corrupt"),
            ],
            rank_faults=[RankFault("crash", rank=0)],
        )
        bad = unportable_faults(plan)
        assert bad == ["message fault 'drop'", "message fault 'delay'"]
        assert unportable_faults(
            FaultPlan(rank_faults=[RankFault("stall", rank=0, stall=1.0)])
        ) == []

    @pytest.mark.parametrize("name", ["threads", "processes"])
    @pytest.mark.parametrize("action", ["drop", "delay", "duplicate"])
    def test_unportable_plan_rejected_off_simulator(self, name, action):
        kwargs = {"delay": 1.0} if action == "delay" else {}
        plan = FaultPlan(message_faults=[MessageFault(action, **kwargs)])
        with pytest.raises(TransportCapabilityError, match=action):
            resolve_transport(name, 2, faults=plan)

    @pytest.mark.parametrize("spec", ["simulator", "none", None])
    def test_supervision_requires_real_workers(self, spec):
        with pytest.raises(TransportCapabilityError, match="supervision"):
            resolve_transport(spec, 2, supervision=SupervisionPolicy())

    def test_supervision_cannot_be_retrofitted_onto_instance(self):
        with ThreadTransport(2) as tt:
            with pytest.raises(TransportCapabilityError, match="supervision"):
                resolve_transport(tt, 2, supervision=SupervisionPolicy())


class TestSupervisionPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": 0.0},
            {"deadline": -1.0},
            {"poll_interval": 0.0},
            {"region_retries": -1},
            {"heartbeat_interval": 0.0},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)

    def test_deadline_none_disables_polling_but_still_classifies(self):
        policy = SupervisionPolicy(deadline=None, region_retries=0)
        with ProcessTransport(2, supervision=policy) as tt:
            assert tt.pardo(_thunks(2)) == [0, 1]
            with pytest.raises(WorkerCrashed):
                tt.pardo(_thunks(2, {1: lambda: os._exit(1)}))

    def test_heartbeat_is_a_noop_everywhere_safe(self):
        sim = Simulator(2, CRAY_T3D)
        sim.heartbeat()  # simulator: no-op
        with ThreadTransport(2) as tt:
            tt.heartbeat()  # coordinator context: no-op
