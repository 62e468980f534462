"""Structured fault journal.

Every event the fault-injection harness produces — a dropped or delayed
message, a corrupted region result, a rank crash or stall, and every recovery
action taken by a resilient driver (retransmit, checkpoint restore) —
is appended to a :class:`FaultJournal` as an immutable
:class:`FaultEvent`.  The journal is the ground truth the determinism
tests assert on: the same :class:`~repro.faults.plan.FaultPlan`
must produce a bit-identical :meth:`FaultJournal.signature` on every
replay, exactly like the factors and the modelled time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["FaultEvent", "FaultJournal"]


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault or one recovery action.

    Attributes
    ----------
    index:
        Position in the journal (0-based, append order).
    kind:
        ``"drop"``, ``"delay"``, ``"duplicate"``, ``"corrupt"``,
        ``"crash"``, ``"stall"``, ``"lost"`` (a receive found its message
        missing), ``"retransmit"`` or ``"restore"`` (recovery actions).
    superstep:
        The simulator's synchronisation count (barriers + collectives
        completed) when the event fired.
    rank:
        The affected rank for rank faults (``-1`` for message faults).
    src, dst:
        Endpoints for message faults (``-1`` for rank faults).
    tag:
        ``repr`` of the message tag (``""`` for rank faults).
    detail:
        Human-readable specifics (delay amount, retry attempt, ...).
    """

    index: int
    kind: str
    superstep: int
    rank: int = -1
    src: int = -1
    dst: int = -1
    tag: str = ""
    detail: str = ""

    def describe(self) -> str:
        where = (
            f"rank {self.rank}"
            if self.rank >= 0
            else f"{self.src}->{self.dst} tag={self.tag}"
        )
        text = f"[{self.index}] {self.kind} @superstep {self.superstep}: {where}"
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class FaultJournal:
    """Append-only log of injected faults and recovery actions."""

    events: list[FaultEvent] = field(default_factory=list)

    def record(
        self,
        kind: str,
        *,
        superstep: int,
        rank: int = -1,
        src: int = -1,
        dst: int = -1,
        tag: object = "",
        detail: str = "",
    ) -> FaultEvent:
        event = FaultEvent(
            index=len(self.events),
            kind=kind,
            superstep=int(superstep),
            rank=int(rank),
            src=int(src),
            dst=int(dst),
            tag=tag if isinstance(tag, str) else repr(tag),
            detail=detail,
        )
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def counts(self) -> dict[str, int]:
        """Events per kind, e.g. ``{"drop": 2, "retransmit": 2}``."""
        return dict(Counter(e.kind for e in self.events))

    def signature(self) -> tuple[tuple[int, str, int, int, int, int, str, str], ...]:
        """A hashable, order-sensitive fingerprint of the whole journal.

        Two runs with the same plan must produce equal
        signatures — the property the determinism suite asserts across
        replays.
        """
        return tuple(
            (e.index, e.kind, e.superstep, e.rank, e.src, e.dst, e.tag, e.detail)
            for e in self.events
        )

    def summary(self) -> str:
        if not self.events:
            return "fault journal: empty"
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        return f"fault journal: {len(self.events)} event(s) ({parts})"
