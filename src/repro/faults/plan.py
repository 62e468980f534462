"""Deterministic fault plans for the SPMD transports.

A :class:`FaultPlan` is an immutable description of *what goes wrong*:
point-to-point message faults (drop / delay / duplicate / corrupt) and
rank faults (crash / stall at a chosen superstep).  The plan itself is
reusable; each transport built with a plan gets a fresh
:class:`FaultRuntime` from :meth:`FaultPlan.runtime` carrying the
mutable match counters and the
:class:`~repro.faults.journal.FaultJournal` — so the same plan replayed
produces a bit-identical journal, factors and modelled time (the
determinism suite asserts this across replays).

One runtime, one reading per fault kind (DESIGN.md §14.3).  Every
transport asks it once per parallel region, at ``pardo`` dispatch
(:meth:`FaultRuntime.plan_region`), which ranks to crash, stall or
hand a corrupt result, and retries a region that failed.  Only the
message faults drop / delay / duplicate are read message by message,
inside the simulator's ``exchange`` (:meth:`FaultRuntime.on_send` /
:meth:`~FaultRuntime.on_lost`); they have no physical reading, and the
worker transports refuse them (:func:`unportable_faults`).

Failure semantics
-----------------
* ``drop``   — the message is charged to the sender but never delivered;
  the exchange that posted it re-posts it (``retransmit``) up to
  ``MAX_RETRANSMITS`` times, then raises :class:`MessageLost` to the
  caller.
* ``delay``  — arrival time is pushed back by ``delay`` seconds.
* ``duplicate`` — a second copy is enqueued (stale copies left in the
  mailbox at the end of the run are visible via ``pending_messages``).
* ``corrupt`` — *corrupt-result*: the rank's thunk runs, and its region
  result is replaced by an undecodable one, which fails the attempt.
* ``crash``  — the rank fails, before its thunk runs, at dispatch of
  the first region at or after ``superstep`` in which it takes part,
  which fails the attempt.  The crash is one-shot (the model is
  fail-once-then-restart), so the region retry that follows makes
  progress.
* ``stall``  — the rank's clock is advanced by ``stall`` seconds once,
  at dispatch of that same region, modelling a straggler (a worker
  also sleeps that long); numerics are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .journal import FaultJournal

__all__ = [
    "FaultError",
    "MessageLost",
    "MessageFault",
    "RankFault",
    "FaultPlan",
    "FaultRuntime",
    "SendEffect",
    "RegionInjection",
    "unportable_faults",
    "VIRTUAL_MESSAGE_ACTIONS",
    "PORTABLE_MESSAGE_ACTIONS",
    "PORTABLE_RANK_ACTIONS",
]

_MESSAGE_ACTIONS = ("drop", "delay", "duplicate", "corrupt")
_RANK_ACTIONS = ("crash", "stall")
#: message-fault actions the simulator injects, message by message
VIRTUAL_MESSAGE_ACTIONS = ("drop", "delay", "duplicate")
#: message-fault actions the worker transports honour (as corrupt-result)
PORTABLE_MESSAGE_ACTIONS = ("corrupt",)
#: rank-fault actions the worker transports honour
PORTABLE_RANK_ACTIONS = ("crash", "stall")


class FaultError(RuntimeError):
    """Base class for errors surfaced by injected faults."""


class MessageLost(FaultError):
    """A receive found no message — it was dropped by the fault plan."""

    def __init__(self, src: int, dst: int, tag: Any) -> None:
        super().__init__(
            f"message {src}->{dst} (tag={tag!r}) was lost; "
            "retransmit or surface the failure"
        )
        self.src = src
        self.dst = dst
        self.tag = tag


@dataclass(frozen=True)
class MessageFault:
    """Affect up to ``count`` matching point-to-point messages.

    ``src``/``dst`` of ``None`` match any endpoint; ``tag`` of ``None``
    matches any tag (a string matches the tag itself or the first
    element of a tuple tag, e.g. ``"urow"`` for ``("urow", level)``).
    The first ``skip`` matching messages are let through unharmed.
    """

    action: str
    src: int | None = None
    dst: int | None = None
    tag: str | None = None
    count: int = 1
    skip: int = 0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in _MESSAGE_ACTIONS:
            raise ValueError(
                f"unknown message fault action {self.action!r}; "
                f"choose from {_MESSAGE_ACTIONS}"
            )
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.skip < 0:
            raise ValueError(f"skip must be >= 0, got {self.skip}")
        if self.action == "delay" and self.delay <= 0:
            raise ValueError("delay faults need delay > 0")

    def matches(self, src: int, dst: int, tag: Any) -> bool:
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        if self.tag is not None:
            head = tag[0] if isinstance(tag, tuple) and tag else tag
            if head != self.tag and tag != self.tag:
                return False
        return True


@dataclass(frozen=True)
class RankFault:
    """Crash or stall ``rank`` in its first region at or after ``superstep``."""

    action: str
    rank: int
    superstep: int = 0
    stall: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in _RANK_ACTIONS:
            raise ValueError(
                f"unknown rank fault action {self.action!r}; "
                f"choose from {_RANK_ACTIONS}"
            )
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.superstep < 0:
            raise ValueError(f"superstep must be >= 0, got {self.superstep}")
        if self.action == "stall" and self.stall <= 0:
            raise ValueError("stall faults need stall > 0")


@dataclass(frozen=True)
class FaultPlan:
    """Immutable description of the faults to inject."""

    message_faults: tuple[MessageFault, ...] = ()
    rank_faults: tuple[RankFault, ...] = ()

    def __post_init__(self) -> None:
        # tolerate lists at the call site; store tuples for hashability
        object.__setattr__(self, "message_faults", tuple(self.message_faults))
        object.__setattr__(self, "rank_faults", tuple(self.rank_faults))

    def runtime(self, journal: FaultJournal | None = None) -> FaultRuntime:
        """Fresh mutable state for one run of this plan, on any transport."""
        return FaultRuntime(self, journal if journal is not None else FaultJournal())

    def describe(self) -> str:
        return (
            f"FaultPlan({len(self.message_faults)} message fault(s), "
            f"{len(self.rank_faults)} rank fault(s))"
        )


def unportable_faults(plan: FaultPlan) -> list[str]:
    """The fault descriptions in ``plan`` a worker transport refuses.

    Empty list means the whole plan is portable (crash / stall rank
    faults and corrupt message faults, reinterpreted as corrupt-result).
    """
    bad: list[str] = []
    for mf in plan.message_faults:
        if mf.action not in PORTABLE_MESSAGE_ACTIONS:
            bad.append(f"message fault {mf.action!r}")
    for rf in plan.rank_faults:
        if rf.action not in PORTABLE_RANK_ACTIONS:  # pragma: no cover - all portable
            bad.append(f"rank fault {rf.action!r}")
    return bad


@dataclass
class SendEffect:
    """What the fault runtime decided for one posted message."""

    deliver: bool = True
    copies: int = 1
    extra_delay: float = 0.0


@dataclass(frozen=True)
class RegionInjection:
    """One region fault scheduled against one rank of one region attempt."""

    kind: str  # "crash" | "stall" | "corrupt"
    stall: float = 0.0


class FaultRuntime:
    """Mutable per-run state of a :class:`FaultPlan`.

    Every transport consults it once per parallel region
    (:meth:`plan_region`); the simulator's ``exchange`` also on every
    message it posts (:meth:`on_send`).  Crash/stall faults disarm when
    they fire (fail-once model), so the region retry that follows makes
    progress, and the same plan recovers alike on every transport.  The
    recovery layers append ``retransmit`` / ``region-retry`` events
    through :attr:`journal`.
    """

    def __init__(self, plan: FaultPlan, journal: FaultJournal) -> None:
        self.plan = plan
        self.journal = journal
        self._seen = [0] * len(plan.message_faults)
        self._fired = [False] * len(plan.rank_faults)

    def on_send(self, src: int, dst: int, tag: Any, superstep: int) -> SendEffect:
        """Apply message faults to one posted message (first match wins).

        Only the virtual actions take part: a ``corrupt`` fault is read
        region by region (:meth:`plan_region`), never per message.
        """
        effect = SendEffect()
        for fi, fault in enumerate(self.plan.message_faults):
            if fault.action not in VIRTUAL_MESSAGE_ACTIONS or not fault.matches(src, dst, tag):
                continue
            seen = self._seen[fi]
            self._seen[fi] = seen + 1
            if seen < fault.skip or seen >= fault.skip + fault.count:
                continue
            if fault.action == "drop":
                effect.deliver = False
                self.journal.record(
                    "drop", superstep=superstep, src=src, dst=dst, tag=tag
                )
            elif fault.action == "delay":
                effect.extra_delay += fault.delay
                self.journal.record(
                    "delay",
                    superstep=superstep,
                    src=src,
                    dst=dst,
                    tag=tag,
                    detail=f"+{fault.delay:g}s",
                )
            else:  # duplicate
                effect.copies += 1
                self.journal.record(
                    "duplicate", superstep=superstep, src=src, dst=dst, tag=tag
                )
            return effect  # one fault per message keeps semantics composable
        return effect

    def on_lost(self, src: int, dst: int, tag: Any, superstep: int) -> None:
        """Journal a receive that found its message missing."""
        self.journal.record("lost", superstep=superstep, src=src, dst=dst, tag=tag)

    def plan_region(self, active: list[int], superstep: int) -> dict[int, RegionInjection]:
        """Schedule armed faults against the ranks of one parallel region.

        Rank faults fire at the first region at or after their
        ``superstep`` in which their rank participates; a ``corrupt``
        message fault counts regions in which its target rank (``src``,
        or the lowest active rank) participates, honouring ``skip`` /
        ``count`` exactly like :meth:`on_send` counts matching messages.
        Faults disarm when *dispatched*, not when their effect is
        observed: region retry re-runs the same thunks, and a fault that
        re-fired on every attempt would never let the region complete.
        """
        inject: dict[int, RegionInjection] = {}
        for fi, fault in enumerate(self.plan.rank_faults):
            if self._fired[fi] or fault.rank not in active or superstep < fault.superstep:
                continue
            self._fired[fi] = True
            if fault.action == "crash":
                self.journal.record(
                    "crash", superstep=superstep, rank=fault.rank,
                    detail="injected worker crash",
                )
                inject.setdefault(fault.rank, RegionInjection("crash"))
            else:  # stall
                self.journal.record(
                    "stall", superstep=superstep, rank=fault.rank,
                    detail=f"+{fault.stall:g}s",
                )
                inject.setdefault(fault.rank, RegionInjection("stall", stall=fault.stall))
        for fi, fault in enumerate(self.plan.message_faults):
            rank = fault.src if fault.src is not None else min(active)
            if fault.action != "corrupt" or rank not in active:
                continue
            seen = self._seen[fi]
            self._seen[fi] = seen + 1
            if seen < fault.skip or seen >= fault.skip + fault.count:
                continue
            if rank in inject:
                continue  # one fault per rank per region keeps semantics composable
            self.journal.record(
                "corrupt", superstep=superstep, rank=rank,
                detail="injected corrupt-result",
            )
            inject[rank] = RegionInjection("corrupt")
        return inject
