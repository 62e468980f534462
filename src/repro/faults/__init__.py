"""Deterministic fault injection for the SPMD machine model.

Describe failures with an immutable :class:`FaultPlan` (message
drop/delay/duplicate/corrupt, rank crash/stall), hand it to a transport
— every transport reads crash / stall / corrupt-result at region
dispatch and retries the failed region, and the
:class:`~repro.machine.Simulator` alone reads drop / delay / duplicate,
message by message — and every injected event lands in a structured
:class:`FaultJournal` whose :meth:`~FaultJournal.signature` is
bit-reproducible across runs and transports.  One
:class:`FaultRuntime` serves them all.
"""

from .journal import FaultEvent, FaultJournal
from .plan import (
    PORTABLE_MESSAGE_ACTIONS,
    PORTABLE_RANK_ACTIONS,
    VIRTUAL_MESSAGE_ACTIONS,
    FaultError,
    FaultPlan,
    FaultRuntime,
    MessageFault,
    MessageLost,
    RankFault,
    RegionInjection,
    SendEffect,
    unportable_faults,
)

__all__ = [
    "FaultEvent",
    "FaultJournal",
    "FaultError",
    "FaultPlan",
    "FaultRuntime",
    "MessageFault",
    "MessageLost",
    "RankFault",
    "RegionInjection",
    "SendEffect",
    "unportable_faults",
    "VIRTUAL_MESSAGE_ACTIONS",
    "PORTABLE_MESSAGE_ACTIONS",
    "PORTABLE_RANK_ACTIONS",
]
