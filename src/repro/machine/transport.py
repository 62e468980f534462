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
    pipes; one that does not survive pickling is the supervised
    :class:`~repro.machine.errors.ResultUnpicklable` failure.

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
* the messaging surface ``exchange([(src, dst, nwords)], tag)`` (posts,
  then drains, retransmitting what a fault plan drops) / ``barrier`` /
  ``allreduce`` / ``allgather`` and the accounting surface ``compute`` / ``advance`` /
  ``superstep`` / ``elapsed`` / ``stats`` — a message is accounting
  only: it moves time and counters, never data;
* the tracing hooks ``declare_read`` / ``declare_write`` (no-ops unless
  built with ``trace=True``);
* ``workers`` — which ranks share one executor, a read-only tuple of
  rank tuples: the simulator is one worker holding every rank (its
  coordinator thread runs every thunk), a worker transport is one
  worker per rank.  A region whose work is separable by row may run a
  worker's whole share as one thunk body, placed in the thunk of the
  worker's lowest rank that holds rows; the worker's other ranks with
  rows get a thunk that returns ``None``.  ``pardo`` then sees the
  same active ranks as per-rank thunks, so region faults fire, journal
  and retry exactly as before, and the merge still charges each row
  to the rank that owns it.

Because all of the second and third group runs in coordinator context
on every transport, and so does ``pardo``'s fault dispatch and region
retry, :class:`LocalTransport` — the base of the two worker transports
— *is* a ``Simulator`` and overrides only where one attempt of a region
executes, and the lifecycle.  The cost model, the race tracer and the
charge ledger belong to that shared core, not to one backend: modelled
time and communication statistics are the same numbers on every
transport, and wall-clock time is the caller's to measure.

Drivers reach a transport through two helpers defined here (DESIGN.md
§13.2): :class:`entry_transport` (acquire / report / release for one
entry-point call) and :func:`run_region` (one parallel region, with or
without a transport).

``resolve_transport`` is the single entry-point factory the
``transport=`` keyword of every ``parallel_*`` driver goes through; it
raises the typed :class:`TransportCapabilityError` for the requests that
describe a real difference between transports.  Every transport reads
the region faults of a :class:`~repro.faults.FaultPlan` (crash / stall /
corrupt-result, see :mod:`repro.faults.plan`) at ``pardo`` dispatch and
retries a failed region from the coordinator's intact state —
bit-identical by the pure-thunk discipline.  Worker transports act the
faults out physically and collect every region under a supervisor
(DESIGN.md §14): per-rank deadlines with heartbeats and the typed
failure taxonomy of :mod:`repro.machine.errors` (``WorkerCrashed`` /
``WorkerHung`` / ``ResultUnpicklable``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..faults import FaultPlan, unportable_faults
from .errors import TransportCapabilityError, TransportError
from .model import CRAY_T3D, MachineModel
from .simulator import Simulator
from .supervision import SupervisionPolicy

__all__ = [
    "LocalTransport",
    "resolve_transport",
    "entry_transport",
    "run_region",
    "transport_name",
    "TRANSPORT_NAMES",
]

#: The spellings ``resolve_transport`` accepts as strings.  ``"none"``
#: (or ``None``) runs the identical algorithm with no transport at all —
#: the accounting-free fast path used heavily in tests.
TRANSPORT_NAMES = ("simulator", "threads", "processes", "none")


class LocalTransport(Simulator):
    """A :class:`Simulator` whose parallel regions run on real workers.

    Clocks, counters, mailboxes, collectives, statistics, instruments,
    fault dispatch and region retry are inherited; this class adds what
    having workers adds: a supervision policy (deadlines, retry budget,
    DESIGN.md §14), the refusal of faults without a physical reading,
    and a lifecycle.  Subclasses implement :meth:`_run_region`, one
    supervised attempt of a region on the workers.

    ``model``, ``faults`` and ``instruments`` (``trace`` / ``ledger``)
    are the simulator's own.  A worker injects per region, never per
    message, so a plan with drop / delay / duplicate faults is refused.
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
        bad = unportable_faults(faults) if faults is not None else []
        if bad:
            raise TransportCapabilityError(
                f"faults= on transport {self.name!r} supports only the portable "
                "subset (crash/stall rank faults, corrupt message faults as "
                f"corrupt-result); not portable: {', '.join(bad)} — the worker "
                "transports refuse them by policy, use transport='simulator'"
            )
        super().__init__(nranks, model, faults=faults, **instruments)
        self.supervision = supervision if supervision is not None else SupervisionPolicy()
        self._closed = False

    @property
    def workers(self) -> tuple[tuple[int, ...], ...]:
        """One worker per rank: each rank's thunk runs on a thread or
        process of its own."""
        return tuple((r,) for r in range(self.nranks))

    def pardo(self, thunks: Sequence[Callable[[], Any] | None]) -> list[Any]:
        self._ensure_open()
        return super().pardo(thunks)

    def _ensure_open(self) -> None:
        if self._closed:
            raise TransportError("transport is closed")

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
    model, trace:
        Configuration of the accounting core, handed to every named
        transport alike.  ``"none"`` has no instruments and refuses
        them.
    faults:
        Runs on every named transport: crash / stall / corrupt-result
        at region dispatch, followed by region retry, on all three
        (DESIGN.md §14); drop / delay / duplicate messages on the
        simulator only.  The worker transports refuse those rather
        than silently certifying nothing.
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
        for cap, asked in (("trace=True", trace), ("faults=", faults is not None)):
            if asked:
                _refuse(cap, f"the simulator transport or {workers}: no transport, no instruments")
        if supervision is not None:
            _refuse("supervision=", workers)
        return None

    if isinstance(spec, str):
        core: dict[str, Any] = dict(trace=trace, faults=faults)
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
