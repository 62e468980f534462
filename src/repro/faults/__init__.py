"""Deterministic fault injection for the SPMD machine model.

Describe failures with an immutable :class:`FaultPlan` (message
drop/delay/duplicate/corrupt, rank crash/stall), hand it to a transport
— the :class:`~repro.machine.Simulator` injects it virtually (drop /
delay / duplicate / crash / stall), the worker transports physically
(crash / stall / corrupt-result) — and every
injected event lands in a structured :class:`FaultJournal` whose
:meth:`~FaultJournal.signature` is bit-reproducible across runs and
transports.  One :class:`FaultRuntime` serves both.
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
    RankFailure,
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
    "RankFailure",
    "RankFault",
    "RegionInjection",
    "SendEffect",
    "unportable_faults",
    "VIRTUAL_MESSAGE_ACTIONS",
    "PORTABLE_MESSAGE_ACTIONS",
    "PORTABLE_RANK_ACTIONS",
]
