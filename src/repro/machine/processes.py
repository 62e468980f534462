"""Forked SPMD replicas, one generation per driver call (``transport="processes"``).

The paper's ranks are long-lived: they hold their rows and meet at the
level synchronisations.  Here a rank is a forked copy of the calling
process that *runs the driver too*.  A driver call opens a scope on the
transport (:class:`~repro.machine.transport.entry_transport` does); the
first ``pardo`` inside it forks one worker per rank — a **generation** —
and every ``pardo`` from then on is, in a worker, "run my own thunk,
send the result up, receive everyone's results" and, in the coordinator
(the calling process), "collect every rank's result under the region
supervisor, forward them all to every worker".  Each process then
returns the same list from ``pardo`` and executes the driver's own merge
code on it, so all ``nranks + 1`` processes carry the same state to the
next region and nothing is forked again.  This is sound for the reason
region retry is (DESIGN.md §13.4, §14.2): thunks are pure and the merge
is deterministic, so every process that sees all results computes the
same state.  When the outermost scope ends, a worker ``os._exit``\\ s —
a replica never returns into the caller's code — and the coordinator
kills and reaps whatever is still running.  A ``pardo`` outside any
scope is the same code with a generation one region long: only the
active ranks are forked, and each exits after sending its result.

Fork semantics do the heavy lifting: a worker inherits the caller's
entire state as a copy-on-write snapshot, so the drivers' thunks —
closures over engine state that would not survive pickling — run
unmodified.  Only the *results* cross the process boundary, pickled
over pipes — arrays of any size included; PR 7's TRN002 certification
guarantees every certified driver's payloads and returns are
pickle-safe.  A worker therefore owns nothing outside its own address
space and its two pipe ends: killing and reaping it is all the cleanup
there is.

Collection runs under the region supervisor (DESIGN.md §14): the
coordinator polls all pipes with :func:`multiprocessing.connection.wait`
instead of blocking in rank order, so one hung rank cannot delay
detection of another rank's death.  A worker that dies surfaces
:class:`~repro.machine.errors.WorkerCrashed` carrying its exitcode
(or the killing signal); a worker that delivers neither its result
frame nor a heartbeat frame within the supervision deadline surfaces
:class:`~repro.machine.errors.WorkerHung`; a result that cannot
cross the pickle boundary — either direction — surfaces
:class:`~repro.machine.errors.ResultUnpicklable`.  **Any failure
ends the generation**: every worker is killed and reaped before the
error is raised, so the retry in ``LocalTransport.pardo`` finds no
generation and forks a fresh one from the coordinator's intact state.

Every result frame carries the sender's region ordinal (its count of
``pardo`` calls); a frame whose ordinal differs from the coordinator's
is a replica whose control flow left the coordinator's and raises
:class:`TransportError` instead of merging a result from some other
region.

Only region execution differs from the simulator.  All communication
and every charge happen in coordinator context between regions (the
mpi4py-shaped superstep structure; a thunk that tries raises
:class:`TransportError`, DESIGN.md §13.3), where — in a replica as in
the coordinator — the calls are the inherited accounting core run on
the process's own clocks, counters and mailboxes.  Every process
replays the same calls in the same order, so all ``nranks + 1`` copies
agree, and the coordinator's is the one the caller reads.
"""

from __future__ import annotations

import multiprocessing.connection
import os
import pickle
import signal
import sys
import time
import traceback
import warnings
from typing import Any, Callable, Sequence

from ..faults import RegionInjection
from .errors import (
    ResultUnpicklable,
    TransportError,
    TransportWorkerError,
    WorkerCrashed,
    WorkerHung,
)
from .transport import LocalTransport

__all__ = ["ProcessTransport"]

#: frame tags on the pipes (one send_bytes per frame)
_HB_FRAME = b"\x01"
_RESULT_TAG = b"\x00"

#: Seconds a worker whose pipe closed is given to exit by itself, so that
#: it reports its own exit status, before it is SIGKILLed.  A hung worker
#: is SIGKILLed at once.
_KILL_GRACE = 2.0


def _frame(kind: str, body: Any, ordinal: int) -> bytes:
    """One result frame: what happened, the payload (a ``"result"``'s is
    itself pickled bytes, so that a frame always decodes even when its
    result does not), and the sender's region ordinal."""
    return _RESULT_TAG + pickle.dumps((kind, body, ordinal), protocol=pickle.HIGHEST_PROTOCOL)


def _fork() -> int:
    """The one place a worker is started.

    Python 3.12 warns (``DeprecationWarning``) when a process with other
    live threads forks: the child holds a copy of every lock those
    threads held, and nobody left to release it.  That is silenced here,
    not left to the caller's filters, because the hazard does not reach
    a worker: it runs the driver's numerics and this transport's code,
    neither of which takes a lock; it writes to its own two pipes only;
    and it leaves through ``os._exit``, skipping the interpreter shutdown
    that would flush or join what the other threads own.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message=r".*multi-threaded.*fork\(\)", category=DeprecationWarning
        )
        return os.fork()


class ProcessTransport(LocalTransport):
    """Real multi-process execution of the SPMD parallel regions."""

    name = "processes"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if not hasattr(os, "fork"):
            raise TransportError(
                "ProcessTransport requires os.fork (POSIX only); "
                "use transport='threads' instead"
            )
        # replicated by fork and advanced in step by every process
        self._scope_depth = 0
        self._ordinal = 0
        # coordinator side: the live generation, by rank
        self._live: dict[int, int] = {}
        self._up: dict[int, Any] = {}  # worker -> coordinator: result + heartbeat frames
        self._down: dict[int, Any] = {}  # coordinator -> worker: every rank's results
        # worker side
        self._rank: int | None = None
        self._pipe_up: Any = None
        self._pipe_down: Any = None
        self._last_beat = 0.0

    # -- supervision hooks ---------------------------------------------

    def heartbeat(self) -> None:
        if self._rank is None or not self._in_region:
            return  # coordinator context: nobody is waiting for a signal
        now = time.perf_counter()
        if now - self._last_beat < self.supervision.heartbeat_interval:
            return
        self._last_beat = now
        try:
            self._pipe_up.send_bytes(_HB_FRAME)
        except OSError:  # pragma: no cover - coordinator gone: nothing to signal
            pass

    def active_workers(self) -> dict[int, int]:
        """Pids of the live generation by rank (chaos hook); empty
        outside a region unless a driver-call scope is open."""
        return dict(self._live)

    def _classify_exit(self, rank: int, exitcode: int) -> WorkerCrashed:
        if exitcode < 0:
            signum = -exitcode
            try:
                signame = signal.Signals(signum).name
            except ValueError:  # pragma: no cover - unnamed signal number
                signame = f"signal {signum}"
            return WorkerCrashed(
                rank,
                f"child killed by {signame} without a result (exitcode={exitcode})",
                exitcode=exitcode,
                signum=signum,
            )
        return WorkerCrashed(
            rank,
            f"child exited without a result (exitcode={exitcode})",
            exitcode=exitcode,
        )

    # -- generation lifecycle -------------------------------------------

    def begin_scope(self) -> None:
        """Enter one driver call: workers forked from here on stay alive
        between regions, until the matching :meth:`end_scope`."""
        self._scope_depth += 1

    def end_scope(self) -> None:
        """Leave one driver call; the outermost exit ends the generation."""
        self._scope_depth -= 1
        if self._scope_depth == 0:
            self._end_generation()

    def close(self) -> None:
        self._end_generation()
        super().close()

    def _fork_generation(self, ranks: Sequence[int]) -> None:
        """Fork one worker per rank.  Returns in every process: in the
        coordinator with the generation recorded, in a worker with
        ``_rank`` set and only its own two pipe ends open."""
        # fork duplicates buffered stdio; flush so workers don't replay it
        sys.stdout.flush()
        sys.stderr.flush()
        for r in ranks:
            try:
                up_rd, up_wr = multiprocessing.connection.Pipe(duplex=False)
                down_rd, down_wr = multiprocessing.connection.Pipe(duplex=False)
                pid = _fork()
            except OSError as exc:
                self._end_generation()
                raise TransportError(f"could not fork a worker for rank {r}: {exc}") from exc
            if pid == 0:
                # the coordinator's ends, of this worker's pipes and of
                # the earlier siblings', must not stay open here: a dead
                # coordinator has to read as EOF
                up_rd.close()
                down_wr.close()
                for _rank, conn in sorted(self._up.items()) + sorted(self._down.items()):
                    conn.close()
                self._up.clear()
                self._down.clear()
                self._live.clear()
                self._rank, self._pipe_up, self._pipe_down = r, up_wr, down_rd
                return
            up_wr.close()
            down_rd.close()
            self._live[r], self._up[r], self._down[r] = pid, up_rd, down_wr

    def _reap(self, rank: int, grace: float = 0.0) -> int:
        """Drop one worker from the generation and return its exitcode.

        Its pipes are closed first (a worker waiting on them reads EOF
        and exits); it then has ``grace`` seconds to exit by itself, so
        that a worker which died of its own accord reports its own
        exitcode, before it is SIGKILLed.
        """
        pid = self._live.pop(rank)
        self._up.pop(rank).close()
        self._down.pop(rank).close()
        deadline = time.perf_counter() + grace
        pause = 0.0005
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.perf_counter() >= deadline:
                os.kill(pid, signal.SIGKILL)
                _, status = os.waitpid(pid, 0)
                break
            time.sleep(pause)
            pause = min(2 * pause, 0.05)
        return os.waitstatus_to_exitcode(status)

    def _end_generation(self) -> None:
        """Worker: leave, without unwinding into the caller's code.
        Coordinator: kill and reap whatever is still running."""
        if self._rank is not None:
            os._exit(0)
        for _rank, pid in sorted(self._live.items()):
            os.kill(pid, signal.SIGKILL)  # a zombie still takes the signal
        for rank in sorted(self._live):
            self._reap(rank)

    # -- parallel region ----------------------------------------------

    def pardo(self, thunks: Sequence[Callable[[], Any] | None]) -> list[Any]:
        self._ordinal += 1
        return super().pardo(thunks)

    def _run_region(
        self,
        thunks: Sequence[Callable[[], Any] | None],
        active: list[int],
        inject: dict[int, RegionInjection],
    ) -> list[Any]:
        """One supervised execution attempt (see ``LocalTransport.pardo``)."""
        if self._rank is None and not self._live:
            # inside a driver-call scope every rank gets a worker, idle in
            # this region or not: it has the later regions to run
            self._fork_generation(range(self.nranks) if self._scope_depth else active)
        if self._rank is not None:
            return self._work_region(self._rank, thunks, active, inject)
        return self._coordinate_region(active)

    def _coordinate_region(self, active: list[int]) -> list[Any]:
        """Coordinator half of a region: poll the active ranks' pipes with
        ``multiprocessing.connection.wait``; a heartbeat frame pushes a
        rank's deadline out, a result frame resolves it, a dead pipe
        classifies the worker's exit.  With all results in and a scope
        open, forward them to every worker; otherwise — a failure, or no
        scope — end the generation before returning or raising."""
        policy = self.supervision
        results: list[Any] = [None] * self.nranks
        frames: dict[int, bytes] = {}
        failures: dict[int, BaseException] = {}
        deadlines: dict[int, float] = {}
        if policy.deadline is not None:
            now = time.perf_counter()
            deadlines = {r: now + policy.deadline for r in active}
        pending = set(active)
        keep = False
        try:
            while pending:
                by_conn = {self._up[r]: r for r in sorted(pending)}
                timeout = policy.poll_interval if policy.deadline is not None else None
                ready = multiprocessing.connection.wait(list(by_conn), timeout=timeout)
                for conn in ready:
                    r = by_conn[conn]
                    try:
                        frame = conn.recv_bytes()
                    except (EOFError, OSError):
                        # dead pipe: the worker died before (or mid-) result
                        pending.discard(r)
                        failures[r] = self._classify_exit(r, self._reap(r, _KILL_GRACE))
                        continue
                    if frame[:1] == _HB_FRAME:
                        if policy.deadline is not None:
                            deadlines[r] = time.perf_counter() + policy.deadline
                        continue
                    pending.discard(r)
                    frames[r] = frame
                    try:
                        results[r] = self._decode_frame(r, frame)
                    except TransportError as failure:
                        failures[r] = failure
                if policy.deadline is None:
                    continue
                now = time.perf_counter()
                for r in sorted(pending):
                    if now > deadlines[r]:
                        pending.discard(r)
                        failures[r] = WorkerHung(r, policy.deadline)
                        self._reap(r)
            if self._scope_depth and not failures:
                self._forward([frames[r] for r in active], failures)
                keep = not failures
        finally:
            if not keep:
                self._end_generation()
        if failures:
            self._raise_region_failure(failures)
        return results

    def _decode_frame(self, r: int, frame: bytes) -> Any:
        """Rank ``r``'s result, or the region failure its frame stands
        for, raised."""
        kind, body, ordinal = pickle.loads(frame[1:])
        if ordinal != self._ordinal:
            raise TransportError(
                f"rank {r} is out of step: it sent the result of its region "
                f"{ordinal} while the coordinator collects region {self._ordinal} "
                "— a thunk mutated shared state, or the code between regions "
                "is not deterministic (DESIGN.md §13.4)"
            )
        if kind == "error":
            exc_type_name, message, tb_text = body
            raise TransportWorkerError(r, f"{exc_type_name}: {message}\n{tb_text}")
        if kind == "unpicklable":
            raise ResultUnpicklable(
                r,
                "region result could not be pickled in the worker",
                remote_traceback=body,
            )
        try:
            return pickle.loads(body)
        except Exception as exc:
            raise ResultUnpicklable(
                r, f"region result could not be unpickled: {exc!r}"
            ) from exc

    def _forward(self, frames: list[bytes], failures: dict[int, BaseException]) -> None:
        """Send the region's result frames, as received, to every worker."""
        for r, down in sorted(self._down.items()):
            try:
                for frame in frames:
                    down.send_bytes(frame)
            except OSError:
                # EPIPE: this replica died between two regions
                failures[r] = self._classify_exit(r, self._reap(r, _KILL_GRACE))

    def _work_region(
        self,
        rank: int,
        thunks: Sequence[Callable[[], Any] | None],
        active: list[int],
        inject: dict[int, RegionInjection],
    ) -> list[Any]:
        """Worker half of a region: own thunk up, everyone's results down.

        Returns only inside a driver-call scope.  A worker forked for one
        region, or one whose pipes are closed (the coordinator ended the
        generation, or is gone), exits here.
        """
        try:
            thunk = thunks[rank]
            if thunk is not None:
                self._pipe_up.send_bytes(self._thunk_frame(thunk, inject.get(rank)))
            if self._scope_depth:
                results: list[Any] = [None] * self.nranks
                for r in active:
                    # own result included: every process merges the same objects
                    _kind, body, _ordinal = pickle.loads(self._pipe_down.recv_bytes()[1:])
                    results[r] = pickle.loads(body)
                return results
        except (EOFError, OSError):
            pass
        except BaseException:
            # a replica unwinds to the end of its scope and exits there;
            # without a scope there is no code of its own to unwind into
            if self._scope_depth:
                raise
        os._exit(0)

    def _thunk_frame(self, thunk: Callable[[], Any], injection: RegionInjection | None) -> bytes:
        """Run one thunk in worker context and encode what happened."""
        if injection is not None and injection.kind == "crash":
            # injected worker crash: die before any work, like a segfault
            # between dispatch and result would
            os._exit(1)
        ordinal = self._ordinal
        self._last_beat = time.perf_counter()
        try:
            if injection is not None and injection.kind == "stall":
                time.sleep(injection.stall)
            result = thunk()
        except BaseException as exc:  # noqa: BLE001 - serialised to the coordinator
            return _frame("error", (type(exc).__name__, str(exc), traceback.format_exc()), ordinal)
        if injection is not None and injection.kind == "corrupt":
            # injected corrupt-result: an undecodable blob
            return _frame("result", b"\x80repro-corrupt-result", ordinal)
        try:
            body = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return _frame("unpicklable", traceback.format_exc(), ordinal)
        return _frame("result", body, ordinal)
