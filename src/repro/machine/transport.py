"""The transport abstraction behind the SPMD API (ROADMAP item 1).

Every parallel driver in this reproduction is a *centralised* SPMD
program: one coordinator loop drives ``nranks`` ranks through
alternating **parallel regions** (per-rank local numerics) and
**communication supersteps** (point-to-point messages, barriers,
collectives).  This module extracts the contract those drivers actually
use from :class:`~repro.machine.simulator.Simulator` into a
:class:`Transport` protocol with three interchangeable implementations:

``Simulator`` (``transport="simulator"``)
    The deterministic oracle.  Executes parallel regions sequentially in
    rank order, maintains per-rank virtual clocks driven by a
    :class:`~repro.machine.model.MachineModel`, and keeps **exclusive
    ownership of fault injection, race tracing and the cost model**.

``ThreadTransport`` (``transport="threads"``)
    One persistent worker thread per rank; parallel regions execute
    concurrently on the workers, messages match through real
    condition-guarded mailboxes keyed on ``(src, dst, tag)``.

``ProcessTransport`` (``transport="processes"``)
    One forked worker process per rank per *driver call*: the workers
    are SPMD replicas that run the driver's code between regions too,
    so a ``pardo`` is "own thunk, then allgather" and nothing is forked
    again until the call returns.  Thunk results travel pickled (the
    TRN002 certification from the transport-portability analyzer
    guarantees the payloads survive this), with large numpy operands
    handed to the coordinator through POSIX shared memory instead of
    the pipe.

The contract (DESIGN.md §13)
----------------------------
A transport provides:

* ``pardo(thunks)`` — the parallel region: ``nranks`` zero-argument
  callables, one per rank (``None`` for an idle rank), executed with
  **read-shared / write-own** semantics: a thunk may read any
  coordinator state but must mutate nothing — it *returns* its updates,
  and the coordinator merges them in deterministic rank order.  This is
  the discipline that makes the three transports bit-identical.
* the messaging surface ``send`` / ``recv`` / ``exchange`` / ``barrier``
  / ``allreduce`` / ``allgather`` and the accounting surface ``compute``
  / ``advance`` / ``superstep`` / ``elapsed`` / ``stats``;
* the tracing hooks ``declare_read`` / ``declare_write`` (no-ops except
  on a tracing simulator) and ``snapshot`` / ``restore`` for the
  checkpoint layer.

Drivers reach a transport through three helpers defined here (DESIGN.md
§13.2): :class:`entry_transport` (acquire / report / release for one
entry-point call), :func:`run_region` (one parallel region, with or
without a transport) and :func:`run_region_by_owner` (rows grouped by
owning rank).

``resolve_transport`` is the single entry-point factory the
``transport=`` keyword of every ``parallel_*`` driver goes through; it
raises the typed :class:`TransportCapabilityError` when ``faults=`` or
``trace=True`` is combined with a backend that cannot honour it — the
simulator is the only fully fault/race-instrumented transport.  Real
transports accept the *portable* fault subset (crash / stall / corrupt-
result; see :mod:`repro.machine.supervision`) and run every ``pardo``
region under a supervisor (DESIGN.md §14): per-rank deadlines with
heartbeats, the typed failure taxonomy (:class:`WorkerCrashed` /
:class:`WorkerHung` / :class:`ResultUnpicklable`), and bounded region
retry from the coordinator's intact state — bit-identical by the
pure-thunk discipline.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from .model import CRAY_T3D, MachineModel
from .simulator import CommStats, Simulator

if TYPE_CHECKING:
    from ..faults import FaultJournal, FaultPlan
    from ..verify.trace import AccessTracer
    from .supervision import PortableFaultRuntime, RegionInjection, SupervisionPolicy

__all__ = [
    "Transport",
    "LocalTransport",
    "TransportError",
    "TransportCapabilityError",
    "TransportWorkerError",
    "WorkerCrashed",
    "WorkerHung",
    "ResultUnpicklable",
    "SUPERVISED_FAILURES",
    "TransportSnapshot",
    "is_transport",
    "resolve_transport",
    "entry_transport",
    "run_region",
    "run_region_by_owner",
    "transport_name",
    "TRANSPORT_NAMES",
]

#: The spellings ``resolve_transport`` accepts as strings.  ``"none"``
#: (or ``None``) runs the identical algorithm with no transport at all —
#: the accounting-free fast path used heavily in tests.
TRANSPORT_NAMES = ("simulator", "threads", "processes", "none")


class TransportError(RuntimeError):
    """A transport-layer failure (deadlock, worker death, misuse)."""


class TransportCapabilityError(TransportError, ValueError):
    """A feature was requested from a transport that cannot honour it.

    Raised by :func:`resolve_transport` when ``faults=`` or
    ``trace=True`` (or ``copy_payloads=True``) is combined with a
    non-simulator transport: the simulator is the only backend carrying
    the fault harness and the race tracer, and silently ignoring the
    request would certify nothing.  Subclasses :class:`ValueError` so
    legacy callers catching the old validation error keep working.
    """


class TransportWorkerError(TransportError):
    """A worker rank died with an exception that could not be re-raised.

    Carries the rank and the worker-side traceback text.  The
    supervision layer (DESIGN.md §14) refines it into the typed
    taxonomy below; only those subclasses trigger region retry — a bare
    :class:`TransportWorkerError` is an *application* failure crossing
    a serialisation boundary and surfaces immediately.
    """

    def __init__(self, rank: int, message: str) -> None:
        super().__init__(f"rank {rank} failed: {message}")
        self.rank = rank


class WorkerCrashed(TransportWorkerError):
    """A worker died mid-region without delivering its result.

    For process workers carries the child ``exitcode`` (negative means
    killed by ``-exitcode``) and, when the death was a classified
    signal, ``signum``; ``remote_traceback`` holds the worker-side
    traceback when one made it out before the death.
    """

    def __init__(
        self,
        rank: int,
        message: str,
        *,
        exitcode: int | None = None,
        signum: int | None = None,
        remote_traceback: str = "",
    ) -> None:
        super().__init__(rank, message)
        self.exitcode = exitcode
        self.signum = signum
        self.remote_traceback = remote_traceback


class WorkerHung(TransportWorkerError):
    """A worker delivered neither result nor heartbeat within the deadline."""

    def __init__(self, rank: int, deadline: float) -> None:
        super().__init__(
            rank,
            f"no result or heartbeat within the {deadline:g}s supervision deadline",
        )
        self.deadline = deadline


class ResultUnpicklable(TransportWorkerError):
    """A worker finished but its result could not cross the boundary.

    ``remote_traceback`` carries the worker-side pickling traceback when
    the failure was detected in the worker; parent-side unpickling
    failures report the coordinator's exception instead.
    """

    def __init__(self, rank: int, message: str, *, remote_traceback: str = "") -> None:
        super().__init__(rank, message)
        self.remote_traceback = remote_traceback


#: The failure taxonomy the region supervisor retries on.
SUPERVISED_FAILURES = (WorkerCrashed, WorkerHung, ResultUnpicklable)


class TransportSnapshot:
    """Frozen counter + mailbox state of a real (non-simulated) transport."""

    __slots__ = ("flops", "mail", "messages", "words", "barriers", "collectives")

    def __init__(self, flops, mail, messages, words, barriers, collectives) -> None:
        self.flops = flops
        self.mail = mail
        self.messages = messages
        self.words = words
        self.barriers = barriers
        self.collectives = collectives


class Transport:
    """Structural base/documentation class for the transport contract.

    :class:`~repro.machine.simulator.Simulator` conforms structurally
    without inheriting (it predates this module and tests construct it
    directly); the real backends subclass :class:`LocalTransport`.
    ``isinstance`` checks are therefore deliberately avoided — use
    :func:`is_transport` / :func:`resolve_transport`.
    """

    #: Short spelling used in reports and ``transport=`` round-trips.
    name: str = "abstract"
    #: Whether :class:`~repro.faults.FaultPlan` injection is available.
    supports_faults: bool = False
    #: Whether ``trace=True`` race tracing is available.
    supports_trace: bool = False
    #: True for the modelled (virtual-clock) backend.
    is_simulated: bool = False
    #: True when region thunks run concurrently in one address space —
    #: drivers must then use per-thunk scratch state (accumulators).
    concurrent_regions: bool = False

    nranks: int


def is_transport(obj: object) -> bool:
    """Duck-typed contract check used by :func:`resolve_transport`."""
    return all(
        callable(getattr(obj, meth, None))
        for meth in ("pardo", "send", "recv", "barrier", "compute", "stats")
    ) and hasattr(obj, "nranks")


class LocalTransport(Transport):
    """Shared machinery of the real in-host transports.

    Maintains the same counters :class:`CommStats` reports for the
    simulator (flops, messages, words, barriers, collectives) — without
    a virtual clock: ``elapsed()`` is real wall-clock time since
    construction.  Mailboxes live in the coordinator and match on
    ``(src, dst, tag)`` exactly like the simulator's.

    Subclasses implement :meth:`pardo`; everything else is common.
    """

    #: seconds a worker-context ``recv`` waits before declaring deadlock
    recv_timeout: float = 30.0

    def __init__(
        self,
        nranks: int,
        *,
        supervision: "SupervisionPolicy | None" = None,
        faults: "FaultPlan | None" = None,
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = int(nranks)
        self._flops = np.zeros(self.nranks, dtype=np.float64)
        self._mail: dict[tuple[int, int, Any], deque[tuple[Any, float]]] = defaultdict(deque)
        self._mail_lock = threading.Lock()
        self._mail_ready = threading.Condition(self._mail_lock)
        self._messages = 0
        self._words = 0.0
        self._barriers = 0
        self._collectives = 0
        self._t0 = time.perf_counter()
        self._closed = False
        # ranks never carry a tracer or a simulator fault runtime on a
        # real transport; portable faults live in the supervision layer
        self.tracer: AccessTracer | None = None
        self.faults = None
        from .supervision import PortableFaultRuntime, SupervisionPolicy

        self.supervision = supervision if supervision is not None else SupervisionPolicy()
        self._fault_runtime: PortableFaultRuntime | None = (
            PortableFaultRuntime(faults) if faults is not None else None
        )
        self._region_recoveries = 0

    # -- identity ------------------------------------------------------

    @property
    def fault_journal(self) -> FaultJournal | None:
        """The portable-fault journal, when a plan is armed."""
        return self._fault_runtime.journal if self._fault_runtime is not None else None

    @property
    def region_recoveries(self) -> int:
        """Parallel regions re-executed after a supervised worker failure."""
        return self._region_recoveries

    @property
    def superstep(self) -> int:
        """Completed barriers + collectives (same clock as the simulator)."""
        return self._barriers + self._collectives

    def _check_rank(self, rank: int) -> int:
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range [0, {self.nranks})")
        return int(rank)

    # -- parallel region ----------------------------------------------

    def pardo(self, thunks: Sequence[Callable[[], Any] | None]) -> list[Any]:
        """Run one thunk per rank under the region supervisor.

        Dispatches any armed portable faults, snapshots the transport
        counters, and delegates to the backend's :meth:`_run_region`.
        A supervised failure (:data:`SUPERVISED_FAILURES`: worker
        crashed / hung / result unpicklable) rolls the counters back
        and re-executes the whole region from the coordinator's intact
        state, up to ``supervision.region_retries`` times — safe and
        bit-reproducible because thunks are pure (read-shared /
        write-own, DESIGN.md §13/§14).  Application exceptions raised
        by a thunk are never retried.
        """
        self._check_thunks(thunks)
        self._ensure_open()
        active = [r for r, f in enumerate(thunks) if f is not None]
        if not active:
            return [None] * self.nranks
        attempts = self.supervision.region_retries + 1
        for attempt in range(attempts):
            inject: dict[int, RegionInjection] = (
                self._fault_runtime.plan_region(active, self.superstep)
                if self._fault_runtime is not None
                else {}
            )
            snap = self.snapshot()
            try:
                return self._run_region(thunks, active, inject)
            except SUPERVISED_FAILURES as err:
                self.restore(snap, reason=f"region retry after {type(err).__name__}")
                if attempt + 1 >= attempts:
                    raise
                self._region_recoveries += 1
                if self._fault_runtime is not None:
                    self._fault_runtime.journal.record(
                        "region-retry",
                        superstep=self.superstep,
                        rank=err.rank,
                        detail=f"attempt {attempt + 1}: {type(err).__name__}",
                    )
        raise TransportError("unreachable")  # pragma: no cover

    def _run_region(
        self,
        thunks: Sequence[Callable[[], Any] | None],
        active: list[int],
        inject: "dict[int, RegionInjection]",
    ) -> list[Any]:
        """One supervised execution attempt of a region (backend hook)."""
        raise NotImplementedError

    def _ensure_open(self) -> None:
        if self._closed:
            raise TransportError("transport is closed")

    def _raise_region_failure(self, failures: dict[int, BaseException]) -> None:
        """Raise the failure that decides the region's fate.

        Supervised failures (the retryable taxonomy) take precedence
        over application errors and collateral transport errors (a
        broken barrier on a sibling rank of a crashed worker must not
        mask the crash); within a class, lowest rank first — the same
        deterministic order the pre-supervision transports used.
        """
        supervised = {
            r: e for r, e in failures.items() if isinstance(e, SUPERVISED_FAILURES)
        }
        pick = supervised if supervised else failures
        rank = min(pick)
        exc = pick[rank]
        if isinstance(exc, Exception):
            raise exc
        raise TransportWorkerError(rank, repr(exc))

    def heartbeat(self) -> None:
        """Progress signal from a long-running thunk (worker context).

        Resets the calling rank's supervision deadline; a no-op in
        coordinator context and on the simulator, so drivers may call
        it unconditionally.
        """

    def _check_thunks(self, thunks: Sequence[Callable[[], Any] | None]) -> None:
        if len(thunks) != self.nranks:
            raise ValueError(
                f"pardo expects one thunk per rank ({self.nranks}), got {len(thunks)}"
            )

    # -- accounting (counters only; wall time is real) -----------------

    def compute(self, rank: int, flops: float) -> None:
        rank = self._check_rank(rank)
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        self._flops[rank] += flops

    def advance(self, rank: int, seconds: float) -> None:
        self._check_rank(rank)
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        # wall time is real on this transport; the modelled charge is moot

    # -- point-to-point ------------------------------------------------

    def _deliver(self, payload: Any) -> Any:
        """Transport-specific payload boundary (reference vs serialized)."""
        return payload

    def send(self, src: int, dst: int, payload: Any, nwords: float, tag: Any = None) -> None:
        src = self._check_rank(src)
        dst = self._check_rank(dst)
        if nwords < 0:
            raise ValueError("nwords must be non-negative")
        payload = self._deliver(payload)
        with self._mail_ready:
            self._mail[(src, dst, tag)].append((payload, float(nwords)))
            if src != dst:
                self._messages += 1
                self._words += nwords
            self._mail_ready.notify_all()

    def recv(self, dst: int, src: int, tag: Any = None) -> Any:
        dst = self._check_rank(dst)
        src = self._check_rank(src)
        key = (src, dst, tag)
        deadline = time.perf_counter() + self.recv_timeout
        with self._mail_ready:
            while True:
                box = self._mail.get(key)
                if box:
                    payload, _ = box.popleft()
                    return payload
                if not self._in_worker():
                    # coordinator context: a missing message is a protocol
                    # bug, exactly the simulator's hard deadlock error
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._mail_ready.wait(remaining)
        raise TransportError(
            f"deadlock: rank {dst} receives from {src} (tag={tag!r}) "
            "but no message was sent"
        )

    #: the one pairwise exchange, written against ``send``/``recv``
    exchange = Simulator.exchange

    # -- collectives ---------------------------------------------------

    def _in_worker(self) -> bool:
        """True when called from rank-executed (worker) context."""
        return False

    def barrier(self) -> None:
        if self._sync_workers():
            self._barriers += 1

    def _sync_workers(self) -> bool:
        """Hook for subclasses whose workers can reach a barrier.

        Returns True when this caller should account the barrier (the
        coordinator always does; of N workers meeting at one barrier,
        exactly one must).
        """
        return True

    def allreduce(self, values: np.ndarray | list, op: str = "sum") -> Any:
        arr = np.asarray(values)
        if arr.shape[0] != self.nranks:
            raise ValueError(
                f"allreduce expects one value per rank ({self.nranks}), got {arr.shape}"
            )
        self._collectives += 1
        if op == "sum":
            return arr.sum(axis=0)
        if op == "max":
            return arr.max(axis=0)
        if op == "min":
            return arr.min(axis=0)
        if op == "or":
            return np.logical_or.reduce(arr, axis=0)
        raise ValueError(f"unsupported allreduce op {op!r}")

    def allgather(self, values: list, nwords_each: float = 1.0) -> list:
        if len(values) != self.nranks:
            raise ValueError(
                f"allgather expects one payload per rank ({self.nranks}), got {len(values)}"
            )
        self._collectives += 1
        return list(values)

    # -- tracing hooks (free: no tracer ever on a real transport) ------

    def declare_read(self, rank: int, space: str, indices: int | Iterable[int]) -> None:
        pass

    def declare_write(self, rank: int, space: str, index: int) -> None:
        pass

    # -- checkpoint / restart ------------------------------------------

    def snapshot(self) -> TransportSnapshot:
        with self._mail_lock:
            return TransportSnapshot(
                flops=self._flops.copy(),
                mail={key: deque(box) for key, box in self._mail.items() if box},
                messages=self._messages,
                words=self._words,
                barriers=self._barriers,
                collectives=self._collectives,
            )

    def restore(self, snap: TransportSnapshot, *, reason: str = "") -> None:
        with self._mail_lock:
            self._flops[:] = snap.flops
            self._mail = defaultdict(
                deque, {key: deque(box) for key, box in snap.mail.items()}
            )
            self._messages = snap.messages
            self._words = snap.words
            self._barriers = snap.barriers
            self._collectives = snap.collectives

    # -- results -------------------------------------------------------

    def elapsed(self) -> float:
        """Real wall-clock seconds since the transport was created."""
        return time.perf_counter() - self._t0

    def utilization(self) -> np.ndarray:
        """Unknown on a real transport — reported as all-ones."""
        return np.ones(self.nranks)

    def pending_messages(self) -> int:
        with self._mail_lock:
            return sum(len(q) for q in self._mail.values())

    def stats(self) -> CommStats:
        return CommStats(
            nranks=self.nranks,
            total_flops=float(self._flops.sum()),
            messages=self._messages,
            words_sent=self._words,
            barriers=self._barriers,
            collectives=self._collectives,
            per_rank_flops=[float(f) for f in self._flops],
        )

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release worker resources; the transport is unusable after."""
        self._closed = True

    def __enter__(self) -> "LocalTransport":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def transport_name(transport: object | None) -> str:
    """The report-facing name of a transport instance (``"none"`` for no
    accounting), tolerating bare Simulators that predate ``.name``."""
    if transport is None:
        return "none"
    return getattr(transport, "name", type(transport).__name__.lower())


def resolve_transport(
    spec: object,
    nranks: int,
    *,
    model: MachineModel = CRAY_T3D,
    trace: bool = False,
    faults: "FaultPlan | None" = None,
    copy_payloads: bool = False,
    supervision: "SupervisionPolicy | None" = None,
):
    """Resolve a ``transport=`` argument into a transport instance.

    Parameters
    ----------
    spec:
        ``"simulator"`` | ``"threads"`` | ``"processes"`` | ``"none"`` |
        ``None`` | a ready :class:`Transport` / ``Simulator`` instance.
        ``"none"``/``None`` returns ``None`` — run the identical
        algorithm with no transport.
    nranks:
        Rank count a string spec is instantiated with; an instance must
        already match it.
    model, trace, faults, copy_payloads:
        Simulator configuration.  ``trace=True`` and ``copy_payloads=``
        remain simulator-only.  ``faults=`` runs anywhere a fault can
        be honoured: in full on the simulator, and as the *portable*
        subset (crash / stall / corrupt-result, DESIGN.md §14) on the
        real transports — a plan containing drop / delay / duplicate
        message faults still raises :class:`TransportCapabilityError`
        off-simulator rather than silently certifying nothing.
    supervision:
        A :class:`~repro.machine.supervision.SupervisionPolicy` for the
        worker supervisor — real (worker-backed) transports only.

    Returns
    -------
    A transport instance, or ``None`` for the accounting-free path.
    """
    def _require_simulator(cap: str) -> None:
        raise TransportCapabilityError(
            f"{cap} requires the simulator transport "
            f"(got transport={transport_name(spec) if not isinstance(spec, str) else spec!r}); "
            "the simulator is the only fault/race-instrumented backend"
        )

    def _require_workers(cap: str) -> None:
        raise TransportCapabilityError(
            f"{cap} requires a worker-backed transport (threads/processes) "
            f"(got transport={transport_name(spec) if not isinstance(spec, str) else spec!r}); "
            "only real workers run under the region supervisor"
        )

    def _check_portable(plan: "FaultPlan") -> None:
        from .supervision import unportable_faults

        bad = unportable_faults(plan)
        if bad:
            raise TransportCapabilityError(
                f"faults= on transport "
                f"{transport_name(spec) if not isinstance(spec, str) else spec!r} "
                f"supports only the portable subset (crash/stall rank faults, "
                f"corrupt message faults as corrupt-result); not portable: "
                f"{', '.join(bad)} — use transport='simulator' for those"
            )

    if spec is None or (isinstance(spec, str) and spec == "none"):
        if trace:
            _require_simulator("trace=True")
        if faults is not None:
            _require_simulator("faults=")
        if copy_payloads:
            _require_simulator("copy_payloads=True")
        if supervision is not None:
            _require_workers("supervision=")
        return None

    if isinstance(spec, str):
        if spec == "simulator":
            if supervision is not None:
                _require_workers("supervision=")
            return Simulator(
                nranks, model, trace=trace, faults=faults, copy_payloads=copy_payloads
            )
        if spec in ("threads", "processes"):
            if trace:
                _require_simulator("trace=True")
            if copy_payloads:
                _require_simulator("copy_payloads=True")
            if faults is not None:
                _check_portable(faults)
            if spec == "threads":
                from .threads import ThreadTransport

                return ThreadTransport(nranks, supervision=supervision, faults=faults)
            from .processes import ProcessTransport

            return ProcessTransport(nranks, supervision=supervision, faults=faults)
        raise ValueError(
            f"unknown transport {spec!r}; choose from {TRANSPORT_NAMES} "
            "or pass a Transport instance"
        )

    # a ready instance: validate rank count and capability requests
    if not is_transport(spec):
        raise TypeError(
            f"transport= expects one of {TRANSPORT_NAMES} or a Transport "
            f"instance, got {type(spec).__name__}"
        )
    if spec.nranks != nranks:
        raise ValueError(
            f"transport has {spec.nranks} ranks but nranks={nranks} was requested"
        )
    simulated = bool(getattr(spec, "is_simulated", isinstance(spec, Simulator)))
    if trace and not simulated:
        _require_simulator("trace=True")
    if faults is not None:
        # a fault plan cannot be retrofitted onto a live instance
        raise TransportCapabilityError(
            "faults= cannot be combined with a ready transport instance; "
            "construct Simulator(nranks, model, faults=plan) or "
            "ThreadTransport/ProcessTransport(nranks, faults=plan) and pass that"
        )
    if supervision is not None:
        raise TransportCapabilityError(
            "supervision= cannot be retrofitted onto a ready transport "
            "instance; construct ThreadTransport/ProcessTransport(nranks, "
            "supervision=policy) and pass that"
        )
    if copy_payloads and not simulated:
        _require_simulator("copy_payloads=True")
    if trace and simulated and getattr(spec, "tracer", None) is None:
        raise TransportCapabilityError(
            "trace=True cannot be retrofitted onto a live instance; "
            "construct Simulator(nranks, model, trace=True) and pass that"
        )
    return spec


class entry_transport:
    """Transport lifecycle of one ``transport=`` driver call.

    ``with entry_transport(spec, nranks, ...) as transport:`` resolves
    ``spec`` through :func:`resolve_transport` (same keywords), yields
    the instance — or ``None`` for the accounting-free path — and on
    exit, normal or exceptional, closes the transport only if this call
    built it: a ready instance passed by the caller stays open.

    The ``with`` body is also the **driver-call scope** of a transport
    that has one (``begin_scope`` / ``end_scope``): the process
    transport's workers, forked at the body's first region, execute the
    rest of the body alongside the caller and are gone when it ends —
    borrowed instance or not, nested calls counted (DESIGN.md §13.4).
    """

    def __init__(self, spec: object, nranks: int, **capabilities: Any) -> None:
        self._spec = spec
        self._nranks = nranks
        self._capabilities = capabilities
        self._transport: Any = None

    def __enter__(self) -> Any:
        self._transport = resolve_transport(
            self._spec, self._nranks, **self._capabilities
        )
        begin_scope = getattr(self._transport, "begin_scope", None)
        if begin_scope is not None:
            begin_scope()
        return self._transport

    def __exit__(self, *exc: object) -> None:
        end_scope = getattr(self._transport, "end_scope", None)
        if end_scope is not None:
            end_scope()
        if self._transport is not None and self._transport is not self._spec:
            self._transport.close()

    @staticmethod
    def report(transport: Any) -> dict[str, Any]:
        """The transport-derived fields every driver result carries."""
        if transport is None:
            return {
                "modeled_time": None,
                "comm": None,
                "trace": None,
                "fault_journal": None,
                "recoveries": 0,
                "transport": "none",
            }
        return {
            "modeled_time": transport.elapsed(),
            "comm": transport.stats(),
            "trace": getattr(transport, "tracer", None),
            "fault_journal": getattr(transport, "fault_journal", None),
            "recoveries": getattr(transport, "region_recoveries", 0),
            "transport": transport_name(transport),
        }


def run_region(transport: Any, thunks: Sequence[Callable[[], Any] | None]) -> list[Any]:
    """Dispatch one parallel region: ``transport.pardo(thunks)``, or the
    thunks inline in rank order when no transport is attached."""
    if transport is None:
        return [f() if f is not None else None for f in thunks]
    return transport.pardo(thunks)


def run_region_by_owner(
    transport: Any,
    nranks: int,
    rows: Iterable[int],
    owner: np.ndarray,
    body: Callable[[int, list[int]], list[tuple]],
) -> dict[int, tuple]:
    """One region over ``rows`` grouped by owning rank.

    Each rank with at least one row runs ``body(rank, its_rows)`` (rows
    keep their given order) and returns per-row records whose first
    field is the row; the result indexes every record by that row.
    Merge order — the caller's numerics — stays with the caller.
    """
    by_rank: list[list[int]] = [[] for _ in range(nranks)]
    for i in rows:
        by_rank[int(owner[i])].append(int(i))
    thunks = [
        (lambda rank=rank, mine=mine: body(rank, mine)) if mine else None
        for rank, mine in enumerate(by_rank)
    ]
    results = run_region(transport, thunks)
    return {rec[0]: rec for recs in results if recs for rec in recs}
