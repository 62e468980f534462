"""Deterministic SPMD machine simulator.

The parallel algorithms in this library (parallel ILUT/ILUT*, the
level-scheduled triangular solves, the distributed matvec, the
distributed two-step Luby MIS) are written against this simulator the
way an MPI code is written against a communicator: ranks do local
compute, exchange point-to-point messages, and synchronise at barriers
and collectives.  The simulator

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
- ``send``/``recv`` implement asynchronous point-to-point messages: a
  message arrives no earlier than the sender's clock at send time plus
  the transfer cost; ``recv`` advances the receiver to the arrival time
  if it was ahead of it ("waiting").  A message is pure accounting —
  ``(src, dst, nwords, tag)`` and nothing else: the data a rank needs
  reaches it as the value its parallel-region thunk returns.
- ``barrier()`` sets every clock to the global maximum.
- ``allreduce``/``allgather`` charge a log2(p) tree cost and act as a
  barrier.

The simulator is single-threaded and deterministic: "ranks" are just
indices, and the driver code interleaves their work explicitly, which is
exactly the superstep structure of the algorithms in the paper.

The accounting core
-------------------
Everything above — clocks, counters, mailboxes, collectives, snapshots,
statistics and the instruments below — is the **one** implementation of
the transport contract (DESIGN.md §13).  The worker transports
(:class:`~repro.machine.threads.ThreadTransport`,
:class:`~repro.machine.processes.ProcessTransport`) are this class with
a different :meth:`Simulator.pardo`: they inherit the accounting and
override only where a region's thunks execute, so communication
statistics, modelled time, traces and ledgers are bit-identical across
transports by construction.  That works because of one rule, enforced
here for every transport: **a thunk computes, may call**
:meth:`~Simulator.heartbeat` **, and returns**.  Every charge, message,
barrier and declaration is made in coordinator context, from the
records the thunks return; an accounting call from inside a region
raises :class:`~repro.machine.errors.TransportError` naming the
operation.

Fault injection
---------------
Constructing the simulator with ``faults=FaultPlan(...)`` arms a
deterministic fault harness (see :mod:`repro.faults`): matching
point-to-point messages can be dropped, delayed or duplicated, and
ranks can be stalled or crashed at a chosen superstep
(the count of completed barriers + collectives).  A message carries no
data, so a ``corrupt`` message fault has nothing to act on here and is
refused; its one reading is the worker transports' corrupt-result.
Every injected event is appended to :attr:`Simulator.fault_journal`.  Under an active plan a
receive that finds its mailbox empty raises
:class:`~repro.faults.MessageLost` instead of the hard deadlock error,
so drivers can retransmit; an armed crash raises
:class:`~repro.faults.RankFailure` at the victim's next activity.
:meth:`snapshot` / :meth:`restore` capture and roll back the full
timing + mailbox state so a checkpointing driver can resume from the
last completed level after a crash (crash faults are one-shot and stay
disarmed across a restore).  The default ``faults=None`` keeps the hot
path at a ``None`` check per call.

Race detection
--------------
With ``trace=True`` the simulator carries an
:class:`~repro.verify.trace.AccessTracer`: every ``send`` attaches the
sender's vector clock to the message, every ``recv`` joins it into the
receiver's, and barriers/collectives join all clocks — so instrumented
drivers can declare shared-object accesses via :meth:`declare_read` /
:meth:`declare_write` and :func:`repro.verify.find_races` can check that
conflicting cross-rank accesses are ordered by synchronisation.  The
default ``trace=False`` keeps ``self.tracer`` as ``None`` and the hot
path pays nothing beyond a ``None`` check per communication call.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from ..faults import (
    VIRTUAL_MESSAGE_ACTIONS,
    FaultJournal,
    FaultPlan,
    FaultRuntime,
    MessageLost,
)
from .errors import TransportCapabilityError, TransportError
from .ledger import ChargeLedger
from .model import MachineModel

if TYPE_CHECKING:
    from ..verify.trace import AccessTracer

__all__ = ["Simulator", "CommStats", "SimulatorSnapshot"]


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


@dataclass
class SimulatorSnapshot:
    """Frozen copy of a :class:`Simulator`'s timing + mailbox state.

    Produced by :meth:`Simulator.snapshot`; consumed by
    :meth:`Simulator.restore`.  Fault-runtime state (which faults have
    already fired) deliberately lives *outside* the snapshot so a
    restored run does not re-arm a one-shot crash.
    """

    clock: np.ndarray
    flops: np.ndarray
    busy: np.ndarray
    mail: dict[tuple[int, int, Any], deque[tuple[float, tuple[int, ...] | None]]]
    messages: int
    words: float
    barriers: int
    collectives: int


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
        bad = [
            f"message fault {mf.action!r}"
            for mf in (faults.message_faults if faults is not None else ())
            if mf.action not in VIRTUAL_MESSAGE_ACTIONS
        ]
        if bad:
            raise TransportCapabilityError(
                f"faults= on transport {self.name!r} cannot inject {', '.join(bad)}: "
                "a simulated message carries no data to corrupt; corrupt faults "
                "are the worker transports' corrupt-result, use "
                "transport='threads' or 'processes'"
            )
        self.nranks = int(nranks)
        self.model = model
        #: Opt-in charge introspection (``repro lint --verify-costs``):
        #: every compute/advance/send/barrier/collective charge is
        #: recorded with the driver line that issued it.  ``None`` (the
        #: default) keeps the hot path at a ``None`` check per call and
        #: results bit-identical either way.
        self.ledger = ledger
        self.clock = np.zeros(self.nranks, dtype=np.float64)
        self._flops = np.zeros(self.nranks, dtype=np.float64)
        self._busy = np.zeros(self.nranks, dtype=np.float64)
        # mailbox[(src, dst, tag)] -> FIFO of
        # (arrival_time, attached_vector_clock_or_None)
        self._mail: dict[
            tuple[int, int, Any], deque[tuple[float, tuple[int, ...] | None]]
        ] = defaultdict(deque)
        self._messages = 0
        self._words = 0.0
        self._barriers = 0
        self._collectives = 0
        #: True while a parallel region executes; whatever reaches the
        #: accounting surface then is a thunk, and is refused
        self._in_region = False
        #: Parallel regions re-executed after a supervised worker failure
        #: (always 0 where regions run inline).
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

    def _guard_rank(self, rank: int, op: str) -> None:
        """The choke point of every per-rank accounting call: refuse a
        thunk, then fire pending rank faults (crash raises, stall charges
        time)."""
        if self._in_region:
            self._refuse_thunk(op)
        if self.faults is not None:
            stall = self.faults.on_rank_activity(rank, self.superstep)
            if stall > 0:
                self.clock[rank] += stall

    def compute(self, rank: int, flops: float) -> None:
        """Charge ``flops`` floating-point operations to ``rank``."""
        rank = self._check_rank(rank)
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        self._guard_rank(rank, "compute")
        if self.ledger is not None:
            self.ledger.record("compute", rank, flops)
        cost = self.model.compute_cost(flops)
        self.clock[rank] += cost
        self._busy[rank] += cost
        self._flops[rank] += flops

    def advance(self, rank: int, seconds: float) -> None:
        """Charge raw wall time (e.g. a memory-copy estimate) to ``rank``."""
        rank = self._check_rank(rank)
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self._guard_rank(rank, "advance")
        if self.ledger is not None:
            self.ledger.record("advance", rank, seconds)
        self.clock[rank] += seconds

    def pardo(self, thunks: Sequence[Callable[[], Any] | None]) -> list[Any]:
        """Execute one parallel region: one thunk per rank, ``None`` = idle.

        The simulator is the deterministic oracle of the transport
        family: thunks run *sequentially in rank order* on the
        coordinator thread.  Combined with the drivers' read-shared /
        write-own discipline (a thunk returns its updates rather than
        mutating shared state), this fixes the reference semantics that
        :class:`~repro.machine.threads.ThreadTransport` and
        :class:`~repro.machine.processes.ProcessTransport` must
        reproduce bit for bit.  A region touches neither clocks nor
        counters on any transport — thunks may not charge — so where
        and in which order its thunks execute is invisible to the cost
        model and to fault scheduling.
        """
        self._enter_region(thunks)
        try:
            return [f() if f is not None else None for f in thunks]
        finally:
            self._in_region = False

    def _enter_region(self, thunks: Sequence[Callable[[], Any] | None]) -> None:
        """Validate one ``pardo`` call and open its region; the caller
        resets ``_in_region`` when the region ends, however it ends."""
        if self._in_region:
            self._refuse_thunk("pardo")
        if len(thunks) != self.nranks:
            raise ValueError(
                f"pardo expects one thunk per rank ({self.nranks}), got {len(thunks)}"
            )
        self._in_region = True

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

    def send(self, src: int, dst: int, nwords: float, tag: Any = None) -> None:
        """Post an ``nwords``-word message; the sender is charged the
        injection overhead.

        Under an active fault plan the message may be dropped (charged
        to the sender, never enqueued), delayed or duplicated; every
        effect is journaled.  Local ``src == dst`` hand-offs are not
        messages and bypass the plan.
        """
        src = self._check_rank(src)
        dst = self._check_rank(dst)
        if nwords < 0:
            raise ValueError("nwords must be non-negative")
        self._guard_rank(src, "send")
        attached = self.tracer.on_send(src) if self.tracer is not None else None
        if src == dst:
            # local hand-off: free, but keep FIFO semantics
            self._mail[(src, dst, tag)].append((self.clock[src], attached))
            return
        if self.ledger is not None:
            self.ledger.record("send", src, nwords)
        cost = self.model.message_cost(nwords)
        arrival = self.clock[src] + cost
        # sender pays the injection (latency) portion; overlap of the
        # transfer with computation is the usual MPI eager-protocol model
        self.clock[src] += self.model.latency
        self._messages += 1
        self._words += nwords
        copies = 1
        if self.faults is not None:
            effect = self.faults.on_send(src, dst, tag, self.superstep)
            if not effect.deliver:
                return
            arrival += effect.extra_delay
            copies = effect.copies
            if copies > 1:
                self._messages += copies - 1
                self._words += nwords * (copies - 1)
        self._mail[(src, dst, tag)].extend([(arrival, attached)] * copies)

    def recv(self, dst: int, src: int, tag: Any = None) -> None:
        """Blocking receive: waits (advances the clock) until arrival.

        Under an active fault plan an empty mailbox raises the typed
        :class:`~repro.faults.MessageLost` (the message was dropped and
        the caller may retransmit); without a plan it is a programming
        error and raises the hard deadlock
        :class:`~repro.machine.errors.TransportError` — at once, on
        every transport: all messaging is coordinator-context, so there
        is nobody left to post the message.
        """
        dst = self._check_rank(dst)
        src = self._check_rank(src)
        self._guard_rank(dst, "recv")
        box = self._mail[(src, dst, tag)]
        if not box:
            if self.faults is not None:
                self.faults.on_lost(src, dst, tag, self.superstep)
                raise MessageLost(src, dst, tag)
            raise TransportError(
                f"deadlock: rank {dst} receives from {src} (tag={tag!r}) "
                "but no message was sent"
            )
        arrival, attached = box.popleft()
        if arrival > self.clock[dst]:
            self.clock[dst] = arrival
        if self.tracer is not None:
            self.tracer.on_recv(dst, attached)

    def exchange(self, messages: list[tuple[int, int, float]], tag: Any = None) -> None:
        """Superstep all-to-some exchange.

        ``messages`` is a list of ``(src, dst, nwords)``.  All sends are
        posted in the given order, then the messages are drained in
        ``(src, dst)``-sorted order — the post/drain sequence the
        drivers' fault-journal signatures are pinned to.
        """
        for src, dst, nwords in messages:
            self.send(src, dst, nwords, tag=tag)
        for src, dst in sorted((m[0], m[1]) for m in messages):
            self.recv(dst, src, tag=tag)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------

    def _guard_all(self, op: str) -> None:
        """Every rank participates in a collective — the choke point of
        ``barrier`` / ``allreduce`` / ``allgather``."""
        if self._in_region:
            self._refuse_thunk(op)
        if self.faults is not None:
            for rank in range(self.nranks):
                self._guard_rank(rank, op)

    def barrier(self) -> None:
        """Synchronise all ranks: wait for the slowest, plus the cost of a
        log2(p)-step synchronisation tree (zero-payload collective)."""
        self._guard_all("barrier")
        if self.ledger is not None:
            self.ledger.record("barrier", -1, 0.0)
        self.clock[:] = self.clock.max() + self.model.collective_cost(self.nranks, 0.0)
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
        self._guard_all("allreduce")
        nwords = float(np.prod(arr.shape[1:])) if arr.ndim > 1 else 1.0
        if self.ledger is not None:
            self.ledger.record("allreduce", -1, nwords)
        cost = self.model.collective_cost(self.nranks, nwords)
        self.clock[:] = self.clock.max() + cost
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
        self._guard_all("allgather")
        if self.ledger is not None:
            self.ledger.record("allgather", -1, nwords_each * self.nranks)
        cost = self.model.collective_cost(self.nranks, nwords_each * self.nranks)
        self.clock[:] = self.clock.max() + cost
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
    # checkpoint / restart
    # ------------------------------------------------------------------

    def snapshot(self) -> SimulatorSnapshot:
        """Capture the timing + mailbox state for a later :meth:`restore`.

        A message in flight keeps its arrival time and attached vector
        clock.  Fault-runtime state (fired crash/stall flags, match
        counters) is *not* captured — a one-shot crash stays fired
        across a restore.
        """
        return SimulatorSnapshot(
            clock=self.clock.copy(),
            flops=self._flops.copy(),
            busy=self._busy.copy(),
            mail={key: deque(box) for key, box in self._mail.items() if box},
            messages=self._messages,
            words=self._words,
            barriers=self._barriers,
            collectives=self._collectives,
        )

    def restore(self, snap: SimulatorSnapshot, *, reason: str = "") -> None:
        """Roll clocks, counters and mailboxes back to ``snap``.

        Journals a ``restore`` event when a fault plan is active.
        """
        self.clock[:] = snap.clock
        self._flops[:] = snap.flops
        self._busy[:] = snap.busy
        self._mail = defaultdict(deque, {key: deque(box) for key, box in snap.mail.items()})
        self._messages = snap.messages
        self._words = snap.words
        self._barriers = snap.barriers
        self._collectives = snap.collectives
        if self.faults is not None:
            self.faults.journal.record(
                "restore", superstep=self.superstep, detail=reason
            )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def elapsed(self) -> float:
        """Modelled wall-clock time so far (the slowest rank)."""
        return float(self.clock.max())

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
        return self._busy / total

    def pending_messages(self) -> int:
        """Messages sent but never received (should be 0 at the end)."""
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
