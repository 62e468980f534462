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
over pipes; PR 7's TRN002 certification guarantees every certified
driver's payloads and returns are pickle-safe.  Large numpy operands
skip the upward pipe and travel through POSIX shared memory
(:mod:`multiprocessing.shared_memory`) under deterministic
``repro-shm-<pid>-<k>`` names, so the coordinator can sweep a dead
worker's segments even when no result frame ever arrived.

Collection runs under the region supervisor (DESIGN.md §14): the
coordinator polls all pipes with :func:`multiprocessing.connection.wait`
instead of blocking in rank order, so one hung rank cannot delay
detection of another rank's death.  A worker that dies surfaces
:class:`~repro.machine.transport.WorkerCrashed` carrying its exitcode
(or the killing signal); a worker that delivers neither its result
frame nor a heartbeat frame within the supervision deadline surfaces
:class:`~repro.machine.transport.WorkerHung`; a result that cannot
cross the pickle boundary — either direction — surfaces
:class:`~repro.machine.transport.ResultUnpicklable`.  **Any failure
ends the generation**: every worker is killed and reaped and its
segments swept before the error is raised, so the retry in
``LocalTransport.pardo`` finds no generation and forks a fresh one from
the coordinator's intact state.

Every result frame carries the sender's region ordinal (its count of
``pardo`` calls); a frame whose ordinal differs from the coordinator's
is a replica whose control flow left the coordinator's and raises
:class:`TransportError` instead of merging a result from some other
region.

Workers never see each other, so worker-context messaging is
impossible here: a *thunk* calling ``send`` / ``recv`` / ``barrier``
raises :class:`TransportError`.  The certified drivers keep all
communication in coordinator context between regions (the mpi4py-shaped
superstep structure), where — in a replica as in the coordinator — the
same calls are plain accounting on the process's own counters.

Each thunk's result travels as ``(result, flops_delta)`` so per-rank
``compute`` charges made inside the region survive; every process folds
all deltas into its counters when it takes the results in.
"""

from __future__ import annotations

import io
import itertools
import multiprocessing.connection
import os
import pickle
import signal
import sys
import time
import traceback
import warnings
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .supervision import RegionInjection
from .transport import (
    LocalTransport,
    ResultUnpicklable,
    TransportError,
    TransportWorkerError,
    WorkerCrashed,
    WorkerHung,
)

if TYPE_CHECKING:
    from ..faults import FaultPlan
    from .supervision import SupervisionPolicy

__all__ = ["ProcessTransport"]

#: arrays at or above this byte size return via shared memory, not the pipe
SHM_THRESHOLD_BYTES = 64 * 1024

#: frame tags on the pipes (one send_bytes per frame)
_HB_FRAME = b"\x01"
_RESULT_TAG = b"\x00"


def _shm_prefix(pid: int) -> str:
    return f"repro-shm-{pid}"


class _ShmRef:
    """Pickle-light stand-in for a large ndarray returned from a worker."""

    __slots__ = ("shm_name", "shape", "dtype")

    def __init__(self, shm_name: str, shape: tuple, dtype: str) -> None:
        self.shm_name = shm_name
        self.shape = shape
        self.dtype = dtype


class _ShmPickler(pickle.Pickler):
    """Detours large contiguous float/int arrays through shared memory."""

    def __init__(
        self, file: io.BytesIO, shm_names: list[str], prefix: str | None = None
    ) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._shm_names = shm_names
        self._prefix = prefix

    def _create_segment(self, nbytes: int) -> Any:
        from multiprocessing import shared_memory

        if self._prefix is None:
            return shared_memory.SharedMemory(create=True, size=nbytes)
        # deterministic per-worker names let the coordinator sweep the
        # segments of a dead worker even when no result frame made it out
        name = f"{self._prefix}-{len(self._shm_names)}"
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        except FileExistsError:  # pragma: no cover - stale segment from a reused pid
            stale = shared_memory.SharedMemory(name=name)
            stale.close()
            stale.unlink()
            return shared_memory.SharedMemory(name=name, create=True, size=nbytes)

    def persistent_id(self, obj: Any) -> Any:
        if (
            isinstance(obj, np.ndarray)
            and obj.flags.c_contiguous
            and obj.dtype.hasobject is False
            and obj.nbytes >= SHM_THRESHOLD_BYTES
        ):
            shm = self._create_segment(obj.nbytes)
            view = np.ndarray(obj.shape, dtype=obj.dtype, buffer=shm.buf)
            view[...] = obj
            name = shm.name
            self._shm_names.append(name)
            # the coordinator owns the segment from here (it unlinks on
            # load); detach the worker's tracker registration so the
            # segment isn't unlinked out from under it when the worker's
            # resource_tracker reaps the worker
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
            except Exception:
                pass
            shm.close()
            return _ShmRef(name, obj.shape, obj.dtype.str)
        return None


class _ShmUnpickler(pickle.Unpickler):
    """Coordinator-side twin: materialises ``_ShmRef`` and unlinks segments."""

    def persistent_load(self, pid: Any) -> Any:
        if isinstance(pid, _ShmRef):
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(name=pid.shm_name)
            try:
                view = np.ndarray(pid.shape, dtype=np.dtype(pid.dtype), buffer=shm.buf)
                arr = view.copy()
            finally:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
            return arr
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def _unlink_segment(name: str) -> bool:
    """Unlink one segment by name; False when it does not exist."""
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - racing unlink
        pass
    return True


def _sweep_named_segments(names: Sequence[str]) -> None:
    """Unlink the segments a result frame advertised (unpickle failed)."""
    for name in names:
        _unlink_segment(name)


def _sweep_child_segments(pid: int) -> None:
    """Unlink every deterministic segment a (dead) worker pid created.

    Segment counters are dense (``repro-shm-<pid>-0``, ``-1``, ...), so
    the sweep walks until the first missing name.
    """
    prefix = _shm_prefix(pid)
    for k in itertools.count():
        if not _unlink_segment(f"{prefix}-{k}"):
            break


def _shm_dumps(obj: Any, *, prefix: str | None = None) -> tuple[bytes, list[str]]:
    buf = io.BytesIO()
    names: list[str] = []
    try:
        _ShmPickler(buf, names, prefix).dump(obj)
    except Exception:
        # roll back any segments already created for this object
        _sweep_named_segments(names)
        raise
    return buf.getvalue(), names


def _shm_loads(data: bytes) -> Any:
    return _ShmUnpickler(io.BytesIO(data)).load()


def _frame(kind: str, names: list[str], body: Any, ordinal: int) -> bytes:
    """One result frame: what happened, the segments ``body`` refers to,
    the payload, and the sender's region ordinal."""
    return _RESULT_TAG + pickle.dumps(
        (kind, names, body, ordinal), protocol=pickle.HIGHEST_PROTOCOL
    )


def _fork() -> int:
    """The one place a worker is started.

    Python 3.12 warns (``DeprecationWarning``) when a process with other
    live threads forks: the child holds a copy of every lock those
    threads held, and nobody left to release it.  That is silenced here,
    not left to the caller's filters, because the hazard does not reach
    a worker: it runs the driver's numerics, which take no lock, and this
    transport's code, whose one lock (``_mail_lock``) no thread but the
    forking one ever takes; it writes to its own two pipes only; and it
    leaves through ``os._exit``, skipping the interpreter shutdown that
    would flush or join what the other threads own.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message=r".*multi-threaded.*fork\(\)", category=DeprecationWarning
        )
        return os.fork()


class ProcessTransport(LocalTransport):
    """Real multi-process execution of the SPMD parallel regions."""

    name = "processes"

    def __init__(
        self,
        nranks: int,
        *,
        supervision: "SupervisionPolicy | None" = None,
        faults: "FaultPlan | None" = None,
    ) -> None:
        super().__init__(nranks, supervision=supervision, faults=faults)
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
        self._in_thunk = False
        self._last_beat = 0.0

    # -- worker-context comm is a contract violation --------------------

    def _in_worker(self) -> bool:
        return self._in_thunk

    def _forbid_in_thunk(self, op: str) -> None:
        if self._in_thunk:
            raise TransportError(
                f"{op} is unavailable inside a process-transport parallel "
                "region: forked ranks are isolated; keep communication in "
                "coordinator context between regions (DESIGN.md §13)"
            )

    def send(self, src: int, dst: int, payload: Any, nwords: float, tag: Any = None) -> None:
        self._forbid_in_thunk("send")
        super().send(src, dst, payload, nwords, tag=tag)

    def recv(self, dst: int, src: int, tag: Any = None) -> Any:
        self._forbid_in_thunk("recv")
        return super().recv(dst, src, tag=tag)

    def barrier(self) -> None:
        self._forbid_in_thunk("barrier")
        super().barrier()

    # -- supervision hooks ---------------------------------------------

    def heartbeat(self) -> None:
        if not self._in_thunk:
            return
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
        exitcode, before it is SIGKILLed.  Its segments are swept.
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
        _sweep_child_segments(pid)
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
        self._forbid_in_thunk("pardo")
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
                        failures[r] = self._classify_exit(r, self._reap(r, policy.kill_grace))
                        continue
                    if frame[:1] == _HB_FRAME:
                        if policy.deadline is not None:
                            deadlines[r] = time.perf_counter() + policy.deadline
                        continue
                    pending.discard(r)
                    try:
                        results[r], frames[r] = self._decode_frame(r, frame)
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

    def _decode_frame(self, r: int, frame: bytes) -> tuple[Any, bytes]:
        """Rank ``r``'s result and the frame the workers are sent for it,
        or the region failure its frame stands for, raised."""
        kind, names, body, ordinal = pickle.loads(frame[1:])
        if ordinal != self._ordinal:
            raise TransportError(
                f"rank {r} is out of step: it sent the result of its region "
                f"{ordinal} while the coordinator collects region {self._ordinal} "
                "— a thunk mutated shared state, or the code between regions "
                "is not deterministic (DESIGN.md §13.4)"
            )
        if kind == "error":
            exc_type_name, message, tb_text, flops_delta = body
            self._flops[r] += flops_delta
            raise TransportWorkerError(r, f"{exc_type_name}: {message}\n{tb_text}")
        if kind == "unpicklable":
            tb_text, flops_delta = body
            self._flops[r] += flops_delta
            raise ResultUnpicklable(
                r,
                "region result could not be pickled in the worker",
                remote_traceback=tb_text,
            )
        try:
            payload, flops_delta = _shm_loads(body)
        except Exception as exc:
            _sweep_named_segments(names)
            raise ResultUnpicklable(
                r, f"region result could not be unpickled: {exc!r}"
            ) from exc
        self._flops[r] += flops_delta
        if names and self._scope_depth:
            # the segments are consumed (and unlinked) now: what goes down
            # to the workers carries the arrays in the pipe
            plain = pickle.dumps((payload, flops_delta), protocol=pickle.HIGHEST_PROTOCOL)
            frame = _frame("result", [], plain, ordinal)
        return payload, frame

    def _forward(self, frames: list[bytes], failures: dict[int, BaseException]) -> None:
        """Send the region's result frames, as received, to every worker."""
        for r, down in sorted(self._down.items()):
            try:
                for frame in frames:
                    down.send_bytes(frame)
            except OSError:
                # EPIPE: this replica died between two regions
                failures[r] = self._classify_exit(
                    r, self._reap(r, self.supervision.kill_grace)
                )

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
                self._pipe_up.send_bytes(self._thunk_frame(rank, thunk, inject.get(rank)))
            if self._scope_depth:
                results: list[Any] = [None] * self.nranks
                for r in active:
                    # own result included: every process holds the same
                    # objects and folds the same charges in the same order
                    _kind, _names, body, _ordinal = pickle.loads(
                        self._pipe_down.recv_bytes()[1:]
                    )
                    results[r], flops_delta = pickle.loads(body)
                    self._flops[r] += flops_delta
                return results
        except (EOFError, OSError):
            pass
        except BaseException:
            # a replica unwinds to the end of its scope and exits there;
            # without a scope there is no code of its own to unwind into
            if self._scope_depth:
                raise
        os._exit(0)

    def _thunk_frame(
        self, rank: int, thunk: Callable[[], Any], injection: RegionInjection | None
    ) -> bytes:
        """Run one thunk in worker context and encode what happened."""
        if injection is not None and injection.kind == "crash":
            # injected worker crash: die before any work, like a segfault
            # between dispatch and result would
            os._exit(1)
        ordinal = self._ordinal
        flops_before = float(self._flops[rank])
        self._in_thunk = True
        self._last_beat = time.perf_counter()
        try:
            if injection is not None and injection.kind == "stall":
                time.sleep(injection.stall)
            result = thunk()
        except BaseException as exc:  # noqa: BLE001 - serialised to the coordinator
            flops_delta = float(self._flops[rank]) - flops_before
            info = (type(exc).__name__, str(exc), traceback.format_exc(), flops_delta)
            return _frame("error", [], info, ordinal)
        finally:
            self._in_thunk = False
        # the charges come back with everyone else's, in the forwarded frame
        flops_delta = float(self._flops[rank]) - flops_before
        self._flops[rank] = flops_before
        if injection is not None and injection.kind == "corrupt":
            # injected corrupt-result: an undecodable blob, no segments
            return _frame("result", [], b"\x80repro-corrupt-result", ordinal)
        try:
            body, names = _shm_dumps(
                (result, flops_delta), prefix=_shm_prefix(os.getpid())
            )
        except Exception:
            return _frame("unpicklable", [], (traceback.format_exc(), flops_delta), ordinal)
        return _frame("result", names, body, ordinal)
