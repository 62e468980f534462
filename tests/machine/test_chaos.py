"""Chaos suite: SIGKILL live children mid-region, recover bit-identically.

The acceptance test of the supervision layer (DESIGN.md §14) under real
violence: worker processes are killed — by themselves mid-result, or
externally via :meth:`ProcessTransport.active_workers` — while a region
is in flight, and the coordinator must detect the death, retry the
region from its intact state and reproduce the undisturbed bits exactly.
A worker owns nothing but its address space and two pipe ends, so there
is nothing of the corpse's to clean up.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.faults import FaultPlan, RankFault
from repro.machine import ProcessTransport, SupervisionPolicy, WorkerCrashed
from repro.matrices import poisson2d
from repro.solvers import parallel_solve

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

NO_RETRY = SupervisionPolicy(deadline=10.0, poll_interval=0.01, region_retries=0)

# results well past a pipe buffer (240 kB): a frame the coordinator
# reads in many pieces, so a worker can die part-way through one
BIG_N = 30_000


class TestSigkillMidRegion:
    def test_self_kill_before_result_recovers_bit_identical(self, tmp_path):
        """Rank 1 computes its result, then SIGKILLs itself without a frame."""
        flag = tmp_path / "fired"
        big = np.sqrt(np.arange(BIG_N, dtype=np.float64) + 1.0)

        def victim():
            out = big * 2.0
            if not flag.exists():  # one-shot: the retry must succeed
                flag.write_bytes(b"x")
                os.kill(os.getpid(), signal.SIGKILL)
            return out

        with ProcessTransport(2) as tt:
            res = tt.pardo([lambda: big + 1.0, victim])
            assert tt.region_recoveries == 1
        assert np.array_equal(res[0], big + 1.0)
        assert np.array_equal(res[1], big * 2.0)

    def test_external_sigkill_via_active_workers(self):
        """A watcher SIGKILLs rank 1's live pid mid-region from outside."""
        big = np.arange(BIG_N, dtype=np.float64)
        tt = ProcessTransport(2)
        killed: list[int] = []

        def slow(r):
            def thunk():
                time.sleep(0.8)  # wide window for the watcher to strike
                return big * float(r + 1)

            return thunk

        def watcher():
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                pid = tt.active_workers().get(1)
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                    return
                time.sleep(0.005)

        with tt:
            w = threading.Thread(target=watcher)
            w.start()
            res = tt.pardo([slow(0), slow(1)])
            w.join()
            assert killed, "watcher never saw a live worker pid"
            assert tt.region_recoveries == 1
        assert np.array_equal(res[0], big)
        assert np.array_equal(res[1], big * 2.0)

    def test_kill_without_recovery_budget_names_signal(self):
        def suicide():
            os.kill(os.getpid(), signal.SIGKILL)

        with ProcessTransport(2, supervision=NO_RETRY) as tt:
            with pytest.raises(WorkerCrashed) as ei:
                tt.pardo([lambda: 0, suicide])
        assert ei.value.signum == signal.SIGKILL
        assert "SIGKILL" in str(ei.value)


class TestDriverChaos:
    def test_parallel_solve_crash_recovery_is_bit_identical(self):
        """Injected crash during factorization: same solution bits, same
        iteration count, one region recovery — on a real transport."""
        A = poisson2d(10)
        b = A @ np.ones(A.shape[0])
        kwargs = dict(m=5, t=1e-4, k=2, transport="threads")
        base = parallel_solve(A, b, 4, **kwargs)
        plan = FaultPlan(rank_faults=[RankFault("crash", rank=2, superstep=3)])
        rep = parallel_solve(A, b, 4, faults=plan, **kwargs)
        assert rep.recoveries == 1
        assert rep.fault_journal is not None
        assert rep.fault_journal.counts() == {"crash": 1, "region-retry": 1}
        assert rep.converged and base.converged
        assert rep.num_matvec == base.num_matvec
        assert np.array_equal(rep.x, base.x)

    def test_process_chaos_matches_simulator_oracle(self):
        """The same seeded plan recovers on processes and the simulator,
        and both land on the oracle's factors bit for bit."""
        from repro.ilu import ILUTParams, parallel_ilut

        A = poisson2d(12)
        params = ILUTParams(fill=5, threshold=1e-4)
        plan = FaultPlan(rank_faults=[RankFault("crash", rank=1, superstep=2)])
        clean = parallel_ilut(A, params, 4, seed=0)
        sim = parallel_ilut(A, params, 4, seed=0, faults=plan)
        real = parallel_ilut(A, params, 4, seed=0, faults=plan, transport="processes")
        assert sim.recoveries >= 1  # checkpoint restarts on the simulator
        assert real.recoveries == 1  # region retry on the real transport
        for res in (sim, real):
            assert np.array_equal(res.factors.L.data, clean.factors.L.data)
            assert np.array_equal(res.factors.U.data, clean.factors.U.data)
            assert np.array_equal(res.factors.L.indptr, clean.factors.L.indptr)
            assert np.array_equal(res.factors.U.indptr, clean.factors.U.indptr)
            assert np.array_equal(res.factors.perm, clean.factors.perm)
