"""Process-transport generations: one fork per driver call (DESIGN.md §13.4).

Inside an ``entry_transport`` scope the forked workers are SPMD replicas
that run the code between regions too — *including the body of these
tests*.  An assertion that fails in a replica therefore ends that
replica (it leaves through ``os._exit`` at the scope's end) and shows up
in the coordinator as a crashed worker, not as a second test report.

Pinned here: a generation never outlives its driver call, whatever way
the call ends; large results cross the pipes in both directions across
the regions of one generation; a replica that falls out of step is an
error; and the fork is quiet in a multi-threaded process.
"""

import glob
import os
import signal
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.decomp import decompose
from repro.ilu import ILUTParams, parallel_ilut, parallel_triangular_solve
from repro.machine import (
    ProcessTransport,
    SupervisionPolicy,
    TransportError,
    TransportWorkerError,
    WorkerCrashed,
    entry_transport,
)
from repro.matrices import poisson2d
from repro.resilience import PivotPolicy, ZeroPivotError
from repro.solvers import parallel_matvec
from repro.sparse import CSRMatrix

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and os.path.isdir("/proc/self")),
    reason="needs os.fork and /proc",
)

NO_RETRY = SupervisionPolicy(deadline=10.0, poll_interval=0.01, region_retries=0)

# results well past a pipe buffer (240 kB each, >= 64 KiB)
BIG_N = 30_000


def _children() -> list[tuple[int, str]]:
    """(pid, command line) of every child of this process, zombies included."""
    me = str(os.getpid())
    out = []
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as fh:
                ppid = fh.read().rsplit(")", 1)[1].split()[1]
            with open(os.path.dirname(path) + "/cmdline") as fh:
                cmdline = fh.read()
        except OSError:
            continue  # gone between the listing and the read
        if ppid == me:
            out.append((int(path.split("/")[2]), cmdline))
    return out


def _assert_no_generation_left(transport) -> None:
    """``transport`` may be ``None``: the call built and closed its own."""
    assert transport is None or transport.active_workers() == {}
    children = _children()
    # the multiprocessing resource tracker is no worker: if anything in
    # the session started one, it stays
    assert [c for c in children if "resource_tracker" not in c[1]] == []
    if not children:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# lifecycle: however a driver call ends, its generation ends with it
# ---------------------------------------------------------------------------

A = poisson2d(8)
PARAMS = ILUTParams(fill=3, threshold=1e-3)
FACTORS = parallel_ilut(A, PARAMS, 2, seed=0, transport="none").factors
DECOMP = decompose(A, 2, seed=0)


def _zero_pivot_matrix():
    d = np.eye(8)
    d[3, 3] = 0.0
    d[3, 4] = d[4, 3] = 1.0  # row 3 has no pivot and nothing to fill it
    return CSRMatrix.from_dense(d)


DRIVERS = {
    "parallel_ilut": lambda t: parallel_ilut(A, PARAMS, 2, seed=0, transport=t),
    "parallel_triangular_solve": lambda t: parallel_triangular_solve(
        FACTORS, np.ones(A.shape[0]), nranks=2, transport=t
    ),
    "parallel_matvec": lambda t: parallel_matvec(A, DECOMP, np.ones(A.shape[0]), transport=t),
}


class _Boom(Exception):
    """Application failure raised by the code between two regions."""


class TestGenerationEndsWithTheDriverCall:
    @staticmethod
    def _after_first_region(monkeypatch, exc, *, coordinator_only):
        """Raise ``exc`` from the code that follows the call's first region."""
        real = ProcessTransport.pardo
        coordinator = os.getpid()

        def pardo(self, thunks):
            out = real(self, thunks)
            if not coordinator_only or os.getpid() == coordinator:
                raise exc
            return out

        monkeypatch.setattr(ProcessTransport, "pardo", pardo)

    @pytest.mark.parametrize("ending", ["return", "application-error", "interrupt"])
    @pytest.mark.parametrize("borrowed", [False, True], ids=["by-name", "borrowed"])
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_no_worker_segment_or_replica_survives(
        self, driver, borrowed, ending, monkeypatch, tmp_path
    ):
        call = DRIVERS[driver]
        expected: tuple = ()
        if ending == "interrupt":
            # in the coordinator only: the replicas run on into the next
            # region and are still there when the scope unwinds
            self._after_first_region(monkeypatch, KeyboardInterrupt(), coordinator_only=True)
            expected = (KeyboardInterrupt,)
        elif driver == "parallel_ilut":
            if ending == "application-error":
                B = _zero_pivot_matrix()
                call = lambda t: parallel_ilut(  # noqa: E731
                    B, PARAMS, 2, transport=t, pivot_policy=PivotPolicy("raise")
                )
                expected = (ZeroPivotError, TransportWorkerError)
        elif ending == "application-error":
            # replicated, like any exception deterministic code raises
            self._after_first_region(monkeypatch, _Boom(), coordinator_only=False)
            expected = (_Boom,)

        marker = tmp_path / "after-the-call"
        owned = ProcessTransport(2) if borrowed else None
        try:
            if expected:
                with pytest.raises(expected):
                    call(owned or "processes")
            else:
                call(owned or "processes")
            with open(marker, "a") as fh:
                fh.write("returned\n")
            _assert_no_generation_left(owned)
            if owned is not None:
                # a borrowed instance stays usable: next call, next generation
                monkeypatch.undo()
                assert DRIVERS[driver](owned).transport == "processes"
                _assert_no_generation_left(owned)
        finally:
            if owned is not None:
                owned.close()
        # a replica that escaped the scope would have written the line too
        assert marker.read_text() == "returned\n"

    def test_nested_scopes_end_the_generation_at_the_outermost_exit(self):
        coordinator = os.getpid()
        with ProcessTransport(2) as t:
            with entry_transport(t, 2):
                pids = t.pardo([os.getpid, os.getpid])
                generation = t.active_workers()
                with entry_transport(t, 2):
                    assert t.pardo([os.getpid, os.getpid]) == pids
                # the inner exit ended nothing (a replica sees {} both times)
                assert t.active_workers() == generation
                assert t.pardo([os.getpid, os.getpid]) == pids
            assert os.getpid() == coordinator
            assert generation == dict(enumerate(pids))
            _assert_no_generation_left(t)
            # outside any scope: a generation one region long, active ranks only
            lone = t.pardo([None, os.getpid])
            assert lone[0] is None and lone[1] not in (coordinator, *pids)
            _assert_no_generation_left(t)

    def test_idle_ranks_of_the_first_region_are_workers_too(self):
        with ProcessTransport(3) as t:
            with entry_transport(t, 3):
                first = t.pardo([None, os.getpid, None])
                assert sorted(t.active_workers()) in ([0, 1, 2], [])
                second = t.pardo([os.getpid, os.getpid, os.getpid])
            assert first[1] == second[1] and len(set(second)) == 3
            _assert_no_generation_left(t)

    def test_charges_and_counters_are_the_same_in_every_process(self):
        """Every replica replays the same coordinator-context accounting,
        so a later region can read it back from any rank."""
        with ProcessTransport(2) as t:
            with entry_transport(t, 2):
                t.pardo([lambda: 0, lambda: 1])  # the generation exists from here
                t.compute(0, 5.0)
                t.compute(1, 7.0)
                t.exchange([(0, 1, 3.0)])
                t.barrier()

                def seen():
                    s = t.stats()
                    return list(s.per_rank_flops), s.messages, s.barriers

                views = t.pardo([seen, seen])
            assert views == [([5.0, 7.0], 1, 1)] * 2
            assert list(t.stats().per_rank_flops) == [5.0, 7.0]


# ---------------------------------------------------------------------------
# large results inside one generation
# ---------------------------------------------------------------------------

class TestLargeResultsAcrossRegions:
    big = np.sqrt(np.arange(BIG_N, dtype=np.float64) + 1.0)

    def _two_regions(self, spec, between=lambda transport: None):
        """Two regions whose every rank returns a >= 64 KiB array; the
        second reads the merge of the first, so it is right only if every
        replica received every first-region result."""
        big = self.big
        with entry_transport(spec, 2) as t:
            first = t.pardo([lambda: big + 1.0, lambda: big * 2.0])
            merged = first[0] * first[1]
            between(t)
            second = t.pardo([lambda: merged - 1.0, lambda: merged / 3.0])
            return first, second, t.region_recoveries

    @staticmethod
    def _same(got, want):
        return all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    def test_consecutive_regions_carry_large_results_up_and_down(self):
        want_first, want_second, _ = self._two_regions("simulator")
        with ProcessTransport(2, supervision=NO_RETRY) as t:
            first, second, recoveries = self._two_regions(t)
            assert recoveries == 0
            _assert_no_generation_left(t)
        assert self._same(first, want_first) and self._same(second, want_second)

    @staticmethod
    def _kill_rank_1(transport):
        victim = transport.active_workers().get(1)
        if victim is not None:  # the coordinator; a replica knows no pids
            os.kill(victim, signal.SIGKILL)

    def test_sigkill_between_regions_is_retried_on_a_fresh_generation(self):
        _, want_second, _ = self._two_regions("simulator")
        with ProcessTransport(2) as t:
            _, second, recoveries = self._two_regions(t, between=self._kill_rank_1)
            assert recoveries == 1
            _assert_no_generation_left(t)
        assert self._same(second, want_second)

    def test_sigkill_between_regions_surfaces_as_worker_crashed(self):
        with ProcessTransport(2, supervision=NO_RETRY) as t:
            with pytest.raises(WorkerCrashed) as ei:
                self._two_regions(t, between=self._kill_rank_1)
            assert ei.value.rank == 1 and ei.value.signum == signal.SIGKILL
            _assert_no_generation_left(t)


# ---------------------------------------------------------------------------
# out-of-step replicas
# ---------------------------------------------------------------------------

class TestOutOfStepReplica:
    def test_a_replica_that_counts_another_region_is_an_error_not_an_answer(self):
        coordinator = os.getpid()

        def two_regions(t):
            with entry_transport(t, 2):
                assert t.pardo([lambda: 1, lambda: 2]) == [1, 2]
                if os.getpid() != coordinator:
                    t.pardo([None, None])  # nondeterministic code: replicas only
                return t.pardo([lambda: 3, lambda: 4])

        with ProcessTransport(2) as t:  # retries armed: must not be retried
            with pytest.raises(
                TransportError, match=r"rank 0 is out of step.*region 3 .*region 2"
            ) as ei:
                two_regions(t)
            assert not isinstance(ei.value, TransportWorkerError)
            assert t.region_recoveries == 0
            _assert_no_generation_left(t)

    def test_nested_pardo_from_a_thunk_is_refused(self):
        with ProcessTransport(2, supervision=NO_RETRY) as t:
            with pytest.raises(TransportWorkerError, match="pardo is unavailable"):
                t.pardo([lambda: t.pardo([None, None]), None])


# ---------------------------------------------------------------------------
# the fork in a multi-threaded process (Python 3.12's DeprecationWarning)
# ---------------------------------------------------------------------------

class TestForkBesideThreads:
    @pytest.fixture
    def strict_fork(self, monkeypatch):
        """``DeprecationWarning`` is an error, and before 3.12 ``os.fork``
        is made to warn the way 3.12's does: attributed to its caller,
        whenever another thread is alive."""
        if sys.version_info < (3, 12):
            real = os.fork

            def fork():
                if threading.active_count() > 1:
                    warnings.warn(
                        f"This process (pid={os.getpid()}) is multi-threaded, "
                        "use of fork() may lead to deadlocks in the child.",
                        DeprecationWarning,
                        stacklevel=2,
                    )
                return real()

            monkeypatch.setattr(os, "fork", fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            yield

    def test_processes_after_threads_in_one_process(self, strict_fork):
        by_thread = DRIVERS["parallel_triangular_solve"]("threads")
        by_process = DRIVERS["parallel_triangular_solve"]("processes")
        assert np.array_equal(by_thread.x, by_process.x)

    def test_fork_with_a_live_unrelated_thread(self, strict_fork):
        stop = threading.Event()
        bystander = threading.Thread(target=stop.wait, daemon=True)
        bystander.start()
        try:
            assert threading.active_count() > 1
            want = DRIVERS["parallel_matvec"]("simulator")
            got = DRIVERS["parallel_matvec"]("processes")
            with ProcessTransport(2) as t:
                assert t.pardo([lambda: 1, lambda: 2]) == [1, 2]
        finally:
            stop.set()
            bystander.join(timeout=5.0)
        assert not bystander.is_alive()
        assert np.array_equal(got.y, want.y)
