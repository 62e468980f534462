"""Charge introspection for the machine cost model.

Every modeled-speedup figure this reproduction reports is a sum of
individual charges the drivers push into the :class:`Simulator` —
``compute`` flops, ``send`` words, barrier and collective counts.  The
:class:`ChargeLedger` records each of those charges *with the source
location that issued it*, which is what lets the charge-model tests
(``tests/machine/test_cost_model.py``) check the closed-form cost of
every communicating driver against what it actually charged, attribute
a data-dependent total to the engine method that charged it, and show
that no charge comes from the numeric kernels.

The ledger is strictly opt-in (``Simulator(..., ledger=ChargeLedger())``)
so the hot path of a normal run pays only a ``None`` check per charge,
and recording never perturbs clocks, counters or results — a ledgered
run stays bit-identical to an unledgered one.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

__all__ = ["ChargeEvent", "ChargeLedger"]

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))

#: Charge kinds the simulator records (one per charging entry point).
CHARGE_KINDS = (
    "compute",
    "advance",
    "send",
    "barrier",
    "allreduce",
    "allgather",
)


@dataclass(frozen=True)
class ChargeEvent:
    """One charge pushed into the simulator, with its call site.

    ``amount`` is kind-dependent: flops for ``compute``, seconds for
    ``advance``, words for ``send``, and the payload word count for the
    collectives (0.0 for ``barrier``).  ``rank`` is -1 for collectives,
    which charge every rank at once.
    """

    kind: str
    rank: int
    amount: float
    file: str
    line: int

    @property
    def site(self) -> tuple[str, str, int]:
        """Where the charge came from: (kind, file, line)."""
        return (self.kind, self.file, self.line)


class ChargeLedger:
    """Append-only record of every charge a :class:`Simulator` receives.

    The call site attached to each event is the nearest stack frame
    *outside* the machine package — i.e. the driver line that invoked
    ``compute``/``send``/``barrier``/... (possibly through the
    simulator's own ``exchange`` helper).
    """

    def __init__(self) -> None:
        self.events: list[ChargeEvent] = []
        #: filename prefixes whose frames are skipped when attributing a
        #: charge (the machine package itself).
        self._skip_prefixes = (_PACKAGE_DIR,)

    def __len__(self) -> int:
        return len(self.events)

    def record(self, kind: str, rank: int, amount: float) -> None:
        """Record one charge, attributing it to the calling driver line."""
        file = "<unknown>"
        line = 0
        frame = sys._getframe(1)
        while frame is not None:
            fname = frame.f_code.co_filename
            if not fname.startswith(self._skip_prefixes):
                file = fname
                line = frame.f_lineno
                break
            frame = frame.f_back
        self.events.append(
            ChargeEvent(kind=kind, rank=int(rank), amount=float(amount), file=file, line=line)
        )

    # ------------------------------------------------------------ views

    def totals_by_site(self) -> dict[tuple[str, str, int], float]:
        """Sum of ``amount`` per (kind, file, line) charge site."""
        out: dict[tuple[str, str, int], float] = {}
        for ev in self.events:
            out[ev.site] = out.get(ev.site, 0.0) + ev.amount
        return out

    def counts_by_site(self) -> dict[tuple[str, str, int], int]:
        """Number of events per (kind, file, line) charge site."""
        out: dict[tuple[str, str, int], int] = {}
        for ev in self.events:
            out[ev.site] = out.get(ev.site, 0) + 1
        return out

    def total(self, kind: str) -> float:
        """Sum of ``amount`` over every event of ``kind``."""
        return sum(ev.amount for ev in self.events if ev.kind == kind)

    def count(self, kind: str) -> int:
        """Number of events of ``kind``."""
        return sum(1 for ev in self.events if ev.kind == kind)

    def sites(self, kind: str | None = None) -> set[tuple[str, str, int]]:
        """Distinct (kind, file, line) sites, optionally for one kind."""
        return {ev.site for ev in self.events if kind is None or ev.kind == kind}
