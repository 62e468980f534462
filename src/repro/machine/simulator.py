"""Deterministic SPMD machine simulator.

The parallel algorithms in this library (parallel ILUT/ILUT*, the
level-scheduled triangular solves, the distributed matvec, the
distributed two-step Luby MIS) are written against this simulator the
way an MPI code is written against a communicator: ranks do local
compute, exchange point-to-point messages in supersteps, and
synchronise at barriers and collectives.  The simulator

* executes the *real* computation (the factorizations it produces are
  bit-identical to what a real message-passing run would produce, since
  the algorithms are deterministic given the ordering), and
* maintains a **virtual clock per rank**, advanced by a
  :class:`~repro.machine.model.MachineModel`, so the modelled elapsed
  time reflects load imbalance, message latency/volume and the number of
  synchronisation supersteps — the three effects the paper's evaluation
  is about.

Timing semantics
----------------
- ``compute(rank, flops)`` advances one rank's clock.
- ``exchange(messages, tag)`` is the one point-to-point primitive: it
  validates every ``(src, dst, nwords)`` message, posts them in the
  given order, then drains them in ``(src, dst)`` order.  A post fixes
  the message's arrival — the sender's clock at post time plus the
  transfer cost — and charges the sender the latency; a drain advances
  the receiver to the arrival if it was ahead of it ("waiting").  A
  message is pure accounting — ``(src, dst, nwords, tag)`` and nothing
  else: the data a rank needs reaches it as the value its
  parallel-region thunk returns.
- ``barrier()`` sets every clock to the global maximum.
- ``allreduce``/``allgather`` charge a log2(p) tree cost and act as a
  barrier.

The simulator is single-threaded and deterministic: "ranks" are just
indices, and the driver code interleaves their work explicitly, which is
exactly the superstep structure of the algorithms in the paper.

The accounting core
-------------------
Everything above — clocks, counters, mailboxes, collectives,
statistics, region retry and the instruments below — is the **one**
implementation of the transport contract (DESIGN.md §13).  The worker
transports (:class:`~repro.machine.threads.ThreadTransport`,
:class:`~repro.machine.processes.ProcessTransport`) are this class with
a different :meth:`Simulator._run_region`: they inherit the accounting
and ``pardo``'s fault dispatch and retry, and override only where one
attempt of a region's thunks executes, so communication
statistics, modelled time, traces and ledgers are bit-identical across
transports by construction.  That works because of one rule, enforced
here for every transport: **a thunk computes, may call**
:meth:`~Simulator.heartbeat` **, and returns**.  Every charge, message,
barrier and declaration is made in coordinator context, from the
records the thunks return; an accounting call from inside a region
raises :class:`~repro.machine.errors.TransportError` naming the
operation.

The state is plain Python: per-rank clocks, busy times and flop counts
are lists of floats (a float ``+=`` is the IEEE double add numpy
makes, so every per-rank fold has the bits it had as an array), and
:attr:`Simulator.clock` hands out a copy as a float64 array.  An
``exchange`` is one post loop and one drain loop over its whole message
list, with one guard per call; a fault plan, a tracer or a ledger rides
in the same two loops.  The mailbox holds only what outlives a call: a
``duplicate`` fault's stale copies, which the next exchange on their
``(src, dst, tag)`` drains first.  ``stats().total_flops`` stays numpy's
pairwise sum of the per-rank vector.

Fault injection
---------------
Constructing the simulator with ``faults=FaultPlan(...)`` arms a
deterministic fault harness (see :mod:`repro.faults`) with one reading
per fault kind, the same on every transport (DESIGN.md §14.3).  At
``pardo`` dispatch, ranks can be crashed, stalled or handed a corrupt
result from a chosen superstep on (the count of completed barriers +
collectives); a crashed or corrupt attempt is retried from the
untouched coordinator state, bit-identical by the pure-thunk rule.
Inside :meth:`exchange`, matching point-to-point messages can be
dropped, delayed or duplicated; a dropped message is re-posted up to
:data:`MAX_RETRANSMITS` times before :class:`~repro.faults.MessageLost`
escalates to the caller.  Every injected event and every recovery is
appended to :attr:`Simulator.fault_journal`.  The default
``faults=None`` keeps the hot path at a ``None`` check per message.

Race detection
--------------
With ``trace=True`` the simulator carries an
:class:`~repro.verify.trace.AccessTracer`: every posted message carries
the sender's vector clock, every drained one joins it into the
receiver's, and barriers/collectives join all clocks — so instrumented
drivers can declare shared-object accesses via :meth:`declare_read` /
:meth:`declare_write` and :func:`repro.verify.find_races` can check that
conflicting cross-rank accesses are ordered by synchronisation.  The
default ``trace=False`` keeps ``self.tracer`` as ``None`` and the hot
path pays nothing beyond a ``None`` check per communication call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from ..faults import FaultJournal, FaultPlan, FaultRuntime, MessageLost, RegionInjection
from .errors import (
    SUPERVISED_FAILURES,
    ResultUnpicklable,
    TransportError,
    TransportWorkerError,
    WorkerCrashed,
)
from .ledger import ChargeLedger
from .model import MachineModel
from .supervision import SupervisionPolicy

if TYPE_CHECKING:
    from ..verify.trace import AccessTracer

__all__ = ["Simulator", "CommStats", "MAX_RETRANSMITS"]

#: Re-posts of one lost message before :meth:`Simulator.exchange` lets
#: :class:`~repro.faults.MessageLost` escalate to the caller.
MAX_RETRANSMITS = 3


@dataclass
class CommStats:
    """Aggregate communication/computation counters of a simulation."""

    nranks: int = 0
    total_flops: float = 0.0
    messages: int = 0
    words_sent: float = 0.0
    barriers: int = 0
    collectives: int = 0
    per_rank_flops: list[float] = field(default_factory=list)

    def max_flops(self) -> float:
        return max(self.per_rank_flops) if self.per_rank_flops else 0.0

    def load_imbalance(self) -> float:
        """Max over mean per-rank flops (1.0 = perfectly balanced)."""
        if not self.per_rank_flops or self.total_flops == 0:
            return 1.0
        mean = self.total_flops / self.nranks
        return self.max_flops() / mean if mean > 0 else 1.0


class Simulator:
    """A virtual ``nranks``-PE distributed-memory machine.

    The transport contract and its one accounting implementation: every
    ``transport=`` instance is a ``Simulator`` (the worker transports
    subclass it and replace region execution only).  Run as itself it is
    the deterministic oracle the worker transports' results are
    bit-compared against.
    """

    #: Short spelling used in reports and ``transport=`` round-trips.
    name = "simulator"
    #: The region supervisor's knobs.  Regions run inline here, so of
    #: the default policy only ``region_retries`` applies; the worker
    #: transports take a policy of their own.
    supervision = SupervisionPolicy()

    def __init__(
        self,
        nranks: int,
        model: MachineModel,
        *,
        trace: bool = False,
        faults: FaultPlan | None = None,
        ledger: ChargeLedger | None = None,
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = int(nranks)
        self.model = model
        #: Opt-in charge introspection (the charge-model tests):
        #: every compute/advance/send/barrier/collective charge is
        #: recorded with the driver line that issued it.  ``None`` (the
        #: default) keeps the hot path at a ``None`` check per call and
        #: results bit-identical either way.
        self.ledger = ledger
        # per-rank state as Python floats: a float ``+=`` is the IEEE
        # double add numpy makes, without a numpy scalar per charge
        self._clock = [0.0] * self.nranks
        self._flops = [0.0] * self.nranks
        self._busy = [0.0] * self.nranks
        # (src, dst, tag) -> FIFO of (arrival, attached vector clock or
        # None) for the channels whose drains need one.  Between calls
        # it holds only the copies an exchange posted and did not drain
        # (a duplicate fault's stale copies), which the next exchange
        # on the channel drains first.
        self._mail: dict[
            tuple[int, int, Any], deque[tuple[float, tuple[int, ...] | None]]
        ] = {}
        self._messages = 0
        self._words = 0.0
        self._barriers = 0
        self._collectives = 0
        #: True while a parallel region executes; whatever reaches the
        #: accounting surface then is a thunk, and is refused
        self._in_region = False
        #: Parallel regions re-executed after a supervised failure.
        self.region_recoveries = 0
        self.faults: FaultRuntime | None = faults.runtime() if faults is not None else None
        self.tracer: AccessTracer | None = None
        if trace:
            # imported lazily: verify pulls in the ilu/graph layers, which
            # depend on this module — eager import would cycle.
            from ..verify.trace import AccessTracer

            self.tracer = AccessTracer(self.nranks)

    # ------------------------------------------------------------------
    # local work
    # ------------------------------------------------------------------

    def _check_rank(self, rank: int) -> int:
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range [0, {self.nranks})")
        return int(rank)

    @property
    def clock(self) -> np.ndarray:
        """The per-rank virtual clocks, as a new float64 array."""
        return np.array(self._clock, dtype=np.float64)

    @property
    def workers(self) -> tuple[tuple[int, ...], ...]:
        """Which ranks share one executor: a tuple of rank tuples, one
        per worker, each ascending.

        The simulator's coordinator thread runs every thunk of a region,
        so it is one worker holding every rank.  A driver may run the
        row-separable work of a worker's ranks as one thunk body
        (DESIGN.md §13.1); the accounting stays per rank.
        """
        return (tuple(range(self.nranks)),)

    @property
    def superstep(self) -> int:
        """Synchronisation count: completed barriers + collectives.

        This is the clock rank faults are scheduled against — it is
        deterministic across transports and replays.
        """
        return self._barriers + self._collectives

    @property
    def fault_journal(self) -> FaultJournal | None:
        """The structured fault journal, or ``None`` without a plan."""
        return self.faults.journal if self.faults is not None else None

    def _refuse_thunk(self, op: str) -> None:
        """What a call that arrives while ``_in_region`` is set gets."""
        raise TransportError(
            f"{op} is unavailable inside a parallel region: a thunk computes, "
            "may call heartbeat(), and returns; keep charges and communication "
            "in coordinator context between regions (DESIGN.md §13.3)"
        )

    def _guard(self, op: str) -> None:
        """The choke point of every accounting call: refuse a thunk."""
        if self._in_region:
            self._refuse_thunk(op)

    def compute(self, rank: int, flops: float) -> None:
        """Charge ``flops`` floating-point operations to ``rank``."""
        rank = self._check_rank(rank)
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        self._guard("compute")
        if self.ledger is not None:
            self.ledger.record("compute", rank, flops)
        cost = self.model.compute_cost(flops)
        self._clock[rank] += cost
        self._busy[rank] += cost
        self._flops[rank] += flops

    def advance(self, rank: int, seconds: float) -> None:
        """Charge raw wall time (e.g. a memory-copy estimate) to ``rank``."""
        rank = self._check_rank(rank)
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self._guard("advance")
        if self.ledger is not None:
            self.ledger.record("advance", rank, seconds)
        self._clock[rank] += seconds

    def pardo(self, thunks: Sequence[Callable[[], Any] | None]) -> list[Any]:
        """Execute one parallel region: one thunk per rank, ``None`` = idle.

        Each attempt first asks the fault runtime which active ranks to
        crash, stall or hand a corrupt result
        (:meth:`~repro.faults.FaultRuntime.plan_region`); a stall is
        charged to the rank's clock here, on every transport.  Then
        :meth:`_run_region` executes the thunks.  A supervised failure
        (:data:`~repro.machine.errors.SUPERVISED_FAILURES`: worker
        crashed / hung / result unpicklable) re-executes the whole
        region from the coordinator's intact state, up to
        ``supervision.region_retries`` times — safe and
        bit-reproducible because thunks are pure (read-shared /
        write-own) and may not charge, so a failed attempt leaves
        nothing to roll back (DESIGN.md §14.2).  Application exceptions
        raised by a thunk are never retried.
        """
        if self._in_region:
            self._refuse_thunk("pardo")
        if len(thunks) != self.nranks:
            raise ValueError(
                f"pardo expects one thunk per rank ({self.nranks}), got {len(thunks)}"
            )
        self._in_region = True
        try:
            active = [r for r, f in enumerate(thunks) if f is not None]
            if not active:
                return [None] * self.nranks
            attempt = 0
            while True:
                inject: dict[int, RegionInjection] = {}
                if self.faults is not None:
                    inject = self.faults.plan_region(active, self.superstep)
                    for rank, injection in inject.items():
                        self._clock[rank] += injection.stall
                try:
                    return self._run_region(thunks, active, inject)
                except SUPERVISED_FAILURES as err:
                    attempt += 1
                    if attempt > self.supervision.region_retries:
                        raise
                    self.region_recoveries += 1
                    if self.faults is not None:
                        self.faults.journal.record(
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
        """One execution attempt of a region: where the transports differ.

        The simulator is the deterministic oracle of the transport
        family: thunks run *sequentially in rank order* on the
        coordinator thread, and an injection is acted out the way a
        worker fails — a crashed rank's thunk does not run
        (:class:`~repro.machine.errors.WorkerCrashed`), a corrupt one's
        runs and its result is lost
        (:class:`~repro.machine.errors.ResultUnpicklable`).  Combined
        with the drivers' read-shared / write-own discipline this fixes
        the reference semantics that
        :class:`~repro.machine.threads.ThreadTransport` and
        :class:`~repro.machine.processes.ProcessTransport` reproduce bit
        for bit.
        """
        results: list[Any] = [None] * self.nranks
        failures: dict[int, BaseException] = {}
        for r in active:
            kind = inject[r].kind if r in inject else None
            if kind == "crash":
                failures[r] = WorkerCrashed(r, "worker crashed (injected)")
                continue
            try:
                results[r] = thunks[r]()
            except Exception as exc:  # noqa: BLE001 - decided like a worker's
                failures[r] = exc
                continue
            if kind == "corrupt":
                failures[r] = ResultUnpicklable(
                    r, "injected corrupt-result: payload undecodable"
                )
        if failures:
            self._raise_region_failure(failures)
        return results

    def _raise_region_failure(self, failures: dict[int, BaseException]) -> None:
        """Raise the failure that decides a region attempt's fate.

        Supervised failures (the retryable taxonomy) take precedence
        over application errors; within a class, lowest rank first.
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
        """Progress signal from a long-running thunk — the one transport
        call a thunk may make.

        It tells the worker transports' region supervisor (DESIGN.md §14)
        the rank is alive; here the region runs inline and the call is
        free, as it is in coordinator context everywhere — drivers need
        no transport switch.
        """

    def begin_scope(self) -> None:
        """Enter one driver call (:class:`~repro.machine.transport.entry_transport`
        does): workers that live as long as the call start from here."""

    def end_scope(self) -> None:
        """Leave the driver call entered by the matching :meth:`begin_scope`."""

    def close(self) -> None:
        """Release worker resources; the simulator holds none."""

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------

    def exchange(self, messages: list[tuple[int, int, float]], tag: Any = None) -> None:
        """Superstep all-to-some exchange — the one way a driver moves a
        message.

        ``messages`` is a list of ``(src, dst, nwords)``.  Every message
        is validated before the first is posted, so a bad rank
        (``IndexError``) or a negative ``nwords`` (``ValueError``)
        leaves the simulator untouched.  All sends are then posted in
        the given order, and the messages drained in ``(src,
        dst)``-sorted order — the post/drain sequence the drivers'
        fault-journal signatures are pinned to.  Every message a call
        posts is drained by that same call, so an exchange cannot
        deadlock or leave a post undrained (a ``duplicate`` fault's
        stale copy aside: the next exchange on its ``(src, dst, tag)``
        drains it first).

        A message lost to the fault plan is re-posted by its sender (the
        same ``nwords``, journaled as ``retransmit``) up to
        :data:`MAX_RETRANSMITS` times before :class:`~repro.faults.MessageLost`
        escalates to the caller.
        """
        self._guard("exchange")
        n = self.nranks
        for src, dst, nwords in messages:
            if not (0 <= src < n and 0 <= dst < n and nwords >= 0):
                self._check_rank(src)
                self._check_rank(dst)
                if nwords < 0:
                    raise ValueError("nwords must be non-negative")
        posted = self._post(messages, tag)
        # (src, dst, post index) order: the records' leading fields
        posted.sort()
        clock, mail, tracer = self._clock, self._mail, self.tracer
        for src, dst, _, nwords, arrival, attached in posted:
            if arrival is None:
                # through the channel's FIFO: stale copies first
                box = mail[(src, dst, tag)]
                attempt = 0
                while not box:
                    self.faults.on_lost(src, dst, tag, self.superstep)
                    attempt += 1
                    if attempt > MAX_RETRANSMITS:
                        raise MessageLost(src, dst, tag)
                    self.faults.journal.record(
                        "retransmit",
                        superstep=self.superstep,
                        src=src,
                        dst=dst,
                        tag=tag,
                        detail=f"attempt {attempt}",
                    )
                    self._post([(src, dst, nwords)], tag)
                arrival, attached = box.popleft()
            # the receiver waits for the arrival
            if arrival > clock[dst]:
                clock[dst] = arrival
            if tracer is not None:
                tracer.on_recv(dst, attached)
        if mail:
            for key in [key for key, box in mail.items() if not box]:
                del mail[key]

    def _post(
        self, messages: list[tuple[int, int, float]], tag: Any
    ) -> list[tuple[int, int, int, float, float | None, tuple[int, ...] | None]]:
        """The post loop of :meth:`exchange`, in the given order.

        A message's arrival is fixed here: the sender's clock plus the
        transfer cost; the sender is charged the injection overhead.
        Under an active fault plan the message may be dropped (charged
        to the sender, never delivered), delayed or duplicated; every
        effect is journaled.  Local ``src == dst`` hand-offs are free
        and bypass the plan.

        Returns one ``(src, dst, index, nwords, arrival, attached)``
        record per message, ``index`` its place in ``messages``.  A
        message that is one copy on a channel without stale copies
        carries its arrival; any other goes through the channel's FIFO
        in :attr:`_mail` (``arrival`` is then ``None``).
        """
        clock, mail = self._clock, self._mail
        tracer, ledger, faults = self.tracer, self.ledger, self.faults
        cost, latency = self.model.message_cost, self.model.latency
        superstep = self.superstep
        sent, words = self._messages, self._words
        posted = []
        for i, (src, dst, nwords) in enumerate(messages):
            attached = tracer.on_send(src) if tracer is not None else None
            arrival = clock[src]
            copies = 1
            if src != dst:
                if ledger is not None:
                    ledger.record("send", src, nwords)
                arrival += cost(nwords)
                # sender pays the injection (latency) portion; overlap of the
                # transfer with computation is the usual MPI eager-protocol model
                clock[src] += latency
                sent += 1
                words += nwords
                if faults is not None:
                    effect = faults.on_send(src, dst, tag, superstep)
                    copies = effect.copies if effect.deliver else 0
                    arrival += effect.extra_delay
                    if copies > 1:
                        sent += copies - 1
                        words += nwords * (copies - 1)
            if copies == 1 and not (mail and (src, dst, tag) in mail):
                posted.append((src, dst, i, nwords, arrival, attached))
            else:
                box = mail.setdefault((src, dst, tag), deque())
                box.extend([(arrival, attached)] * copies)
                posted.append((src, dst, i, nwords, None, None))
        self._messages, self._words = sent, words
        return posted

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------

    def barrier(self) -> None:
        """Synchronise all ranks: wait for the slowest, plus the cost of a
        log2(p)-step synchronisation tree (zero-payload collective)."""
        self._guard("barrier")
        if self.ledger is not None:
            self.ledger.record("barrier", -1, 0.0)
        cost = self.model.collective_cost(self.nranks, 0.0)
        self._clock[:] = [max(self._clock) + cost] * self.nranks
        self._barriers += 1
        if self.tracer is not None:
            self.tracer.on_collective()

    def allreduce(self, values: np.ndarray | list, op: str = "sum") -> Any:
        """Reduce a per-rank scalar/array; all ranks get the result.

        Charges a ``log2(p)`` tree of messages and synchronises.
        """
        arr = np.asarray(values)
        if arr.shape[0] != self.nranks:
            raise ValueError(
                f"allreduce expects one value per rank ({self.nranks}), got {arr.shape}"
            )
        self._guard("allreduce")
        nwords = float(np.prod(arr.shape[1:])) if arr.ndim > 1 else 1.0
        if self.ledger is not None:
            self.ledger.record("allreduce", -1, nwords)
        cost = self.model.collective_cost(self.nranks, nwords)
        self._clock[:] = [max(self._clock) + cost] * self.nranks
        self._collectives += 1
        if self.tracer is not None:
            self.tracer.on_collective()
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
        """Every rank contributes one payload; all ranks get the list."""
        if len(values) != self.nranks:
            raise ValueError(
                f"allgather expects one payload per rank ({self.nranks}), got {len(values)}"
            )
        self._guard("allgather")
        if self.ledger is not None:
            self.ledger.record("allgather", -1, nwords_each * self.nranks)
        cost = self.model.collective_cost(self.nranks, nwords_each * self.nranks)
        self._clock[:] = [max(self._clock) + cost] * self.nranks
        self._collectives += 1
        if self.tracer is not None:
            self.tracer.on_collective()
        return list(values)

    # ------------------------------------------------------------------
    # access declarations (no-ops unless trace=True)
    # ------------------------------------------------------------------

    def declare_read(self, rank: int, space: str, indices: int | Iterable[int]) -> None:
        """Declare that ``rank`` reads shared object(s) ``(space, indices)``.

        Free when the simulator was built with ``trace=False``.
        """
        if self.tracer is not None:
            if isinstance(indices, (int, np.integer)):
                self.tracer.read(rank, space, int(indices))
            else:
                self.tracer.read_many(rank, space, indices)

    def declare_write(self, rank: int, space: str, index: int) -> None:
        """Declare that ``rank`` writes shared object ``(space, index)``."""
        if self.tracer is not None:
            self.tracer.write(rank, space, int(index))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def elapsed(self) -> float:
        """Modelled wall-clock time so far (the slowest rank)."""
        return float(max(self._clock))

    def utilization(self) -> np.ndarray:
        """Per-rank fraction of elapsed time spent computing.

        Everything that is not local computation — message injection,
        waiting at receives, barriers and collectives — counts as
        overhead, so ``1 - utilization`` is the parallel-overhead share
        the paper's speedup discussion revolves around.
        """
        total = self.elapsed()
        if total <= 0:
            return np.ones(self.nranks)
        return np.array(self._busy, dtype=np.float64) / total

    def pending_messages(self) -> int:
        """Messages posted and never drained: the stale copies a
        ``duplicate`` fault leaves behind (0 otherwise)."""
        return sum(len(q) for q in self._mail.values())

    def stats(self) -> CommStats:
        return CommStats(
            nranks=self.nranks,
            # numpy's pairwise sum, not a sequential one: the two differ
            # on many rank counts from 8 up
            total_flops=float(np.sum(self._flops)),
            messages=self._messages,
            words_sent=self._words,
            barriers=self._barriers,
            collectives=self._collectives,
            per_rank_flops=[float(f) for f in self._flops],
        )
