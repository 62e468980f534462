"""The transport layer behind the SPMD API (DESIGN.md §13).

Every parallel driver in this reproduction is a *centralised* SPMD
program: one coordinator loop drives ``nranks`` ranks through
alternating **parallel regions** (per-rank local numerics) and
**communication supersteps** (point-to-point messages, barriers,
collectives).  The contract those drivers use has one implementation of
its accounting, :class:`~repro.machine.simulator.Simulator`, and three
ways to execute a region:

``Simulator`` (``transport="simulator"``)
    The deterministic oracle: the thunks of a region run sequentially in
    rank order on the calling thread.

``ThreadTransport`` (``transport="threads"``)
    One persistent worker thread per rank; the thunks of a region run
    concurrently on the workers.  The no-fork parity leg — the only
    worker transport that needs no ``os.fork``.

``ProcessTransport`` (``transport="processes"``)
    One forked worker process per rank per *driver call*: the workers
    are SPMD replicas that run the driver's code between regions too,
    so a ``pardo`` is "own thunk, then allgather" and nothing is forked
    again until the call returns.  Thunk results travel pickled over
    pipes (the TRN002 certification from the transport-portability
    analyzer guarantees the payloads survive this).

The contract (DESIGN.md §13)
----------------------------
A transport provides:

* ``pardo(thunks)`` — the parallel region: ``nranks`` zero-argument
  callables, one per rank (``None`` for an idle rank), executed with
  **read-shared / write-own** semantics: a thunk may read any
  coordinator state but must mutate nothing — it *returns* its updates,
  and the coordinator merges them in deterministic rank order.  The one
  transport method a thunk may call is ``heartbeat()``; everything below
  raises :class:`TransportError` from inside a region.
* the messaging surface ``send`` / ``recv`` / ``exchange`` / ``barrier``
  / ``allreduce`` / ``allgather`` and the accounting surface ``compute``
  / ``advance`` / ``superstep`` / ``elapsed`` / ``stats``;
* the tracing hooks ``declare_read`` / ``declare_write`` (no-ops unless
  built with ``trace=True``) and ``snapshot`` / ``restore`` for the
  checkpoint layer.

Because all of the second and third group runs in coordinator context
on every transport, :class:`LocalTransport` — the base of the two worker
transports — *is* a ``Simulator`` and overrides only region execution
and lifecycle.  The cost model, the race tracer, the charge ledger and
``copy_payloads`` belong to that shared core, not to one backend:
modelled time and communication statistics are the same numbers on
every transport, and wall-clock time is the caller's to measure.

Drivers reach a transport through three helpers defined here (DESIGN.md
§13.2): :class:`entry_transport` (acquire / report / release for one
entry-point call), :func:`run_region` (one parallel region, with or
without a transport) and :func:`run_region_by_owner` (rows grouped by
owning rank).

``resolve_transport`` is the single entry-point factory the
``transport=`` keyword of every ``parallel_*`` driver goes through; it
raises the typed :class:`TransportCapabilityError` for the requests that
describe a real difference between transports.  Worker transports read
a :class:`~repro.faults.FaultPlan` *physically* (crash / stall /
corrupt-result, see :mod:`repro.faults.plan`) and run every ``pardo``
region under a supervisor (DESIGN.md §14): per-rank deadlines with
heartbeats, the typed failure taxonomy of :mod:`repro.machine.errors`
(``WorkerCrashed`` / ``WorkerHung`` / ``ResultUnpicklable``), and
bounded region retry from the coordinator's intact state —
bit-identical by the pure-thunk discipline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from ..faults import FaultJournal, FaultPlan, RegionInjection, unportable_faults
from .errors import (
    SUPERVISED_FAILURES,
    TransportCapabilityError,
    TransportError,
    TransportWorkerError,
)
from .model import CRAY_T3D, MachineModel
from .simulator import Simulator
from .supervision import SupervisionPolicy

__all__ = [
    "LocalTransport",
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


class LocalTransport(Simulator):
    """A :class:`Simulator` whose parallel regions run on real workers.

    Clocks, counters, mailboxes, collectives, snapshots, statistics and
    instruments are inherited; this class adds what having workers adds:
    the region supervisor (deadlines, typed failures, bounded retry,
    DESIGN.md §14), the physical reading of a fault plan, and a
    lifecycle.  Subclasses implement :meth:`_run_region`.

    ``model`` and ``instruments`` (``trace`` / ``copy_payloads`` /
    ``ledger``) are the simulator's own.  ``faults`` is not handed down
    to it: a worker transport injects per region
    (``FaultRuntime.plan_region``), not per message, and refuses a plan
    it cannot read physically.
    """

    def __init__(
        self,
        nranks: int,
        model: MachineModel = CRAY_T3D,
        *,
        supervision: SupervisionPolicy | None = None,
        faults: FaultPlan | None = None,
        **instruments: Any,
    ) -> None:
        super().__init__(nranks, model, **instruments)
        bad = unportable_faults(faults) if faults is not None else []
        if bad:
            raise TransportCapabilityError(
                f"faults= on transport {self.name!r} supports only the portable "
                "subset (crash/stall rank faults, corrupt message faults as "
                f"corrupt-result); not portable: {', '.join(bad)} — the worker "
                "transports refuse them by policy, use transport='simulator'"
            )
        self.supervision = supervision if supervision is not None else SupervisionPolicy()
        self._region_faults = faults.runtime() if faults is not None else None
        self._closed = False

    @property
    def fault_journal(self) -> FaultJournal | None:
        """The journal of physically injected faults and region retries."""
        return self._region_faults.journal if self._region_faults is not None else None

    # -- parallel region ----------------------------------------------

    def pardo(self, thunks: Sequence[Callable[[], Any] | None]) -> list[Any]:
        """Run one thunk per rank under the region supervisor.

        Dispatches any armed faults and delegates to the backend's
        :meth:`_run_region`.  A supervised failure
        (:data:`SUPERVISED_FAILURES`: worker crashed / hung / result
        unpicklable) re-executes the whole region from the coordinator's
        intact state, up to ``supervision.region_retries`` times — safe
        and bit-reproducible because thunks are pure (read-shared /
        write-own) and may not charge, so a failed attempt leaves
        nothing to roll back (DESIGN.md §13/§14).  Application
        exceptions raised by a thunk are never retried.
        """
        self._ensure_open()
        self._enter_region(thunks)
        try:
            active = [r for r, f in enumerate(thunks) if f is not None]
            if not active:
                return [None] * self.nranks
            attempt = 0
            while True:
                inject: dict[int, RegionInjection] = (
                    self._region_faults.plan_region(active, self.superstep)
                    if self._region_faults is not None
                    else {}
                )
                try:
                    return self._run_region(thunks, active, inject)
                except SUPERVISED_FAILURES as err:
                    attempt += 1
                    if attempt > self.supervision.region_retries:
                        raise
                    self.region_recoveries += 1
                    if self._region_faults is not None:
                        self._region_faults.journal.record(
                            "region-retry",
                            superstep=self.superstep,
                            rank=err.rank,
                            detail=f"attempt {attempt}: {type(err).__name__}",
                        )
        finally:
            self._in_region = False

    def _run_region(
        self,
        thunks: Sequence[Callable[[], Any] | None],
        active: list[int],
        inject: dict[int, RegionInjection],
    ) -> list[Any]:
        """One supervised execution attempt of a region (backend hook)."""
        raise NotImplementedError

    def _ensure_open(self) -> None:
        if self._closed:
            raise TransportError("transport is closed")

    def _raise_region_failure(self, failures: dict[int, BaseException]) -> None:
        """Raise the failure that decides the region's fate.

        Supervised failures (the retryable taxonomy) take precedence
        over application errors; within a class, lowest rank first — the
        same deterministic order the pre-supervision transports used.
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

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release worker resources; the transport is unusable after."""
        self._closed = True


def transport_name(transport: Simulator | None) -> str:
    """The report-facing name of a transport instance (``"none"`` for no
    accounting)."""
    return "none" if transport is None else transport.name


def resolve_transport(
    spec: object,
    nranks: int,
    *,
    model: MachineModel = CRAY_T3D,
    trace: bool = False,
    faults: FaultPlan | None = None,
    copy_payloads: bool = False,
    supervision: SupervisionPolicy | None = None,
) -> Simulator | None:
    """Resolve a ``transport=`` argument into a transport instance.

    Parameters
    ----------
    spec:
        ``"simulator"`` | ``"threads"`` | ``"processes"`` | ``"none"`` |
        ``None`` | a ready :class:`Simulator` / worker-transport
        instance.  ``"none"``/``None`` returns ``None`` — run the
        identical algorithm with no transport.
    nranks:
        Rank count a string spec is instantiated with; an instance must
        already match it.
    model, trace, copy_payloads:
        Configuration of the accounting core, handed to every named
        transport alike.  ``"none"`` has no instruments and refuses
        them.
    faults:
        Runs anywhere a fault can be honoured: virtually and in full on
        the simulator, physically (crash / stall / corrupt-result,
        DESIGN.md §14) on the worker transports — which refuse a plan
        containing drop / delay / duplicate message faults rather than
        silently certifying nothing.
    supervision:
        A :class:`~repro.machine.supervision.SupervisionPolicy` for the
        worker supervisor — worker-backed transports only.

    Nothing is retrofitted onto a ready instance: it was built with its
    plan, policy and instruments, or without them.

    Returns
    -------
    A transport instance, or ``None`` for the accounting-free path.
    """
    shown = spec if isinstance(spec, str) or spec is None else type(spec).__name__
    workers = "a worker-backed transport (threads/processes)"

    def _refuse(cap: str, needs: str) -> None:
        raise TransportCapabilityError(f"{cap} requires {needs} (got transport={shown!r})")

    if spec is None or (isinstance(spec, str) and spec == "none"):
        for cap, asked in (
            ("trace=True", trace),
            ("faults=", faults is not None),
            ("copy_payloads=True", copy_payloads),
        ):
            if asked:
                _refuse(cap, f"the simulator transport or {workers}: no transport, no instruments")
        if supervision is not None:
            _refuse("supervision=", workers)
        return None

    if isinstance(spec, str):
        core: dict[str, Any] = dict(trace=trace, faults=faults, copy_payloads=copy_payloads)
        if spec == "simulator":
            if supervision is not None:
                _refuse("supervision=", workers)
            return Simulator(nranks, model, **core)
        if spec == "threads":
            from .threads import ThreadTransport

            return ThreadTransport(nranks, model, supervision=supervision, **core)
        if spec == "processes":
            from .processes import ProcessTransport

            return ProcessTransport(nranks, model, supervision=supervision, **core)
        raise ValueError(
            f"unknown transport {spec!r}; choose from {TRANSPORT_NAMES} "
            "or pass a transport instance"
        )

    if not isinstance(spec, Simulator):
        raise TypeError(
            f"transport= expects one of {TRANSPORT_NAMES} or a Simulator / "
            f"worker-transport instance, got {type(spec).__name__}"
        )
    if spec.nranks != nranks:
        raise ValueError(
            f"transport has {spec.nranks} ranks but nranks={nranks} was requested"
        )
    for cap, asked in (
        ("trace=True", trace and spec.tracer is None),
        ("faults=", faults is not None),
        ("copy_payloads=True", copy_payloads and not spec.copy_payloads),
        ("supervision=", supervision is not None),
    ):
        if asked:
            raise TransportCapabilityError(
                f"{cap} cannot be retrofitted onto a ready {shown} instance; "
                "construct the instance with it and pass that"
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
        self._transport: Simulator | None = None

    def __enter__(self) -> Simulator | None:
        self._transport = resolve_transport(
            self._spec, self._nranks, **self._capabilities
        )
        if self._transport is not None:
            self._transport.begin_scope()
        return self._transport

    def __exit__(self, *exc: object) -> None:
        if self._transport is None:
            return
        self._transport.end_scope()
        if self._transport is not self._spec:
            self._transport.close()

    @staticmethod
    def report(transport: Simulator | None) -> dict[str, Any]:
        """The transport-derived fields every driver result carries.

        ``modeled_time`` is the machine model's time on every transport;
        wall-clock is the caller's to measure around the call.
        """
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
            "trace": transport.tracer,
            "fault_journal": transport.fault_journal,
            "recoveries": transport.region_recoveries,
            "transport": transport.name,
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
