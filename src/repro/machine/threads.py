"""One-worker-thread-per-rank transport (``transport="threads"``).

Each rank gets a persistent worker thread fed through a task queue; a
``pardo`` dispatches one thunk per rank and collects completions under
the region supervisor (DESIGN.md §14): the coordinator polls the done
queue at ``supervision.poll_interval``, and a rank that delivers
neither its result nor a heartbeat within ``supervision.deadline``
seconds is declared :class:`~repro.machine.errors.WorkerHung` —
its thread is abandoned (a daemon; it receives a stop token for
whenever it wakes) and a fresh worker is respawned for the rank, so
the transport survives the failure and the region can be retried.

Only region execution differs from the simulator: messaging, charges,
collectives, tracing and modelled time are the inherited accounting
core, run in coordinator context (DESIGN.md §13.3).  Thunk results come
back **by reference** — the ranks share one address space — so the
drivers' read-shared / write-own discipline (DESIGN.md §13) is what
keeps this safe: thunks never mutate coordinator state, they return
updates that the coordinator merges in rank order, which is also what
makes the factors bit-identical to the simulator's (and what makes
region retry safe).

Role.  Python threads are GIL-bound, so this transport is not a way to
go faster; it is the **no-fork parity leg**: real concurrency between
the thunks of a region (it is what keeping every thunk's scratch state
thunk-local in the drivers is tested against), the whole supervision
taxonomy, and the only worker transport that runs where
``os.fork`` does not exist.
"""

from __future__ import annotations

import queue
import threading
import time
import warnings
from typing import Any, Callable, Sequence

from ..faults import RegionInjection
from .errors import ResultUnpicklable, TransportError, WorkerCrashed, WorkerHung
from .supervision import _InjectedWorkerCrash, _PoisonResult, wrap_injected_thunk
from .transport import LocalTransport

__all__ = ["ThreadTransport"]

_STOP = object()


class ThreadTransport(LocalTransport):
    """Real threaded execution of the SPMD drivers' parallel regions."""

    name = "threads"
    #: seconds ``close()`` waits per worker before declaring it stuck
    close_join_timeout: float = 5.0

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._local = threading.local()
        self._done: queue.Queue = queue.Queue()
        # last heartbeat (or dispatch) timestamp per rank; plain float
        # writes are atomic under the GIL, no lock needed
        self._beats = [0.0] * self.nranks
        self._tasks: list[queue.Queue] = []
        self._workers: list[threading.Thread] = []
        self._abandoned: list[tuple[int, threading.Thread]] = []
        self._stuck_ranks: list[int] = []
        for r in range(self.nranks):
            q: queue.Queue = queue.Queue()
            self._tasks.append(q)
            self._workers.append(self._spawn_worker(r, q))

    # -- worker machinery ---------------------------------------------

    def _spawn_worker(self, rank: int, tasks: queue.Queue) -> threading.Thread:
        worker = threading.Thread(
            target=self._worker_loop,
            args=(rank, tasks),
            name=f"repro-rank-{rank}",
            daemon=True,
        )
        worker.start()
        return worker

    def _worker_loop(self, rank: int, tasks: queue.Queue) -> None:
        # the task queue is bound at spawn time: an abandoned worker keeps
        # draining its own (retired) queue and can never steal work from
        # the replacement thread that took over the rank
        self._local.rank = rank
        while True:
            task = tasks.get()
            if task is _STOP:
                return
            seq, thunk = task
            try:
                result = thunk()
            except BaseException as exc:  # noqa: BLE001 - forwarded to coordinator
                self._done.put((seq, rank, False, exc))
            else:
                self._done.put((seq, rank, True, result))

    def heartbeat(self) -> None:
        rank = getattr(self._local, "rank", None)
        if rank is not None:
            self._beats[rank] = time.perf_counter()

    def _abandon_worker(self, rank: int) -> None:
        """Give up on a hung worker and respawn a fresh one for its rank.

        The hung thread is a daemon holding the *old* task queue: a stop
        token is queued so it exits whenever its thunk finally returns,
        and any late result it posts carries a stale region token and is
        discarded by the collector.
        """
        stale = self._workers[rank]
        self._abandoned.append((rank, stale))
        self._tasks[rank].put(_STOP)
        fresh: queue.Queue = queue.Queue()
        self._tasks[rank] = fresh
        self._workers[rank] = self._spawn_worker(rank, fresh)

    # -- parallel region ----------------------------------------------

    def _run_region(
        self,
        thunks: Sequence[Callable[[], Any] | None],
        active: list[int],
        inject: dict[int, RegionInjection],
    ) -> list[Any]:
        """One supervised execution attempt (see ``Simulator.pardo``).

        Collects completions in arrival order; a failing rank's typed
        error is raised after every participant resolved (completed,
        failed, or was declared hung), so a failure cannot leave a
        worker wedged mid-region.
        """
        policy = self.supervision
        seq = object()  # unique token ties results to this region
        now = time.perf_counter()
        for r in active:
            self._beats[r] = now
            self._tasks[r].put((seq, wrap_injected_thunk(thunks[r], inject.get(r))))
        results: list[Any] = [None] * self.nranks
        failures: dict[int, BaseException] = {}
        remaining = set(active)
        while remaining:
            timeout = None if policy.deadline is None else policy.poll_interval
            try:
                got_seq, rank, ok, value = self._done.get(timeout=timeout)
            except queue.Empty:
                pass
            else:
                if got_seq is not seq or rank not in remaining:
                    continue  # stale result from an abandoned worker/region
                remaining.discard(rank)
                if ok:
                    if isinstance(value, _PoisonResult):
                        failures[rank] = ResultUnpicklable(
                            rank, "injected corrupt-result: payload undecodable"
                        )
                    else:
                        results[rank] = value
                elif isinstance(value, _InjectedWorkerCrash):
                    failures[rank] = WorkerCrashed(
                        rank, "worker thread crashed (injected)",
                        remote_traceback=str(value),
                    )
                elif isinstance(value, Exception):
                    failures[rank] = value  # application error: re-raise as-is
                else:
                    failures[rank] = WorkerCrashed(
                        rank,
                        f"worker thread died on non-Exception {value!r}",
                        remote_traceback=repr(value),
                    )
            if policy.deadline is None:
                continue
            now = time.perf_counter()
            hung = [r for r in sorted(remaining) if now - self._beats[r] > policy.deadline]
            for r in hung:
                remaining.discard(r)
                failures[r] = WorkerHung(r, policy.deadline)
                self._abandon_worker(r)
        if failures:
            self._raise_region_failure(failures)
        return results

    # -- lifecycle -----------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed and self._stuck_ranks:
            raise TransportError(
                f"transport is closed and unusable: worker thread(s) for "
                f"rank(s) {self._stuck_ranks} never terminated"
            )
        super()._ensure_open()

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        for q in self._tasks:
            q.put(_STOP)
        stuck: set[int] = set()
        for r, w in enumerate(self._workers):
            w.join(timeout=self.close_join_timeout)
            if w.is_alive():
                stuck.add(r)
        for r, w in self._abandoned:
            if w.is_alive():
                w.join(timeout=self.close_join_timeout)
                if w.is_alive():
                    stuck.add(r)
        if stuck:
            self._stuck_ranks = sorted(stuck)
            warnings.warn(
                f"ThreadTransport.close(): worker thread(s) for rank(s) "
                f"{self._stuck_ranks} did not terminate within "
                f"{self.close_join_timeout:g}s; the transport is marked "
                "unusable and the daemon threads will be reaped at exit",
                RuntimeWarning,
                stacklevel=2,
            )
