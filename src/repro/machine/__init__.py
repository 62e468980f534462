"""Distributed-memory machine layer: the transport abstraction behind
the SPMD drivers.

One accounting core, three ways to execute a parallel region (see
``transport.py`` / DESIGN.md §13).  :class:`Simulator` is the contract
and its only implementation of clocks, counters, mailboxes, collectives
and instruments (cost model — Cray T3D preset and others — race tracer,
charge ledger, fault journal); run as itself it is the deterministic
oracle.  :class:`ThreadTransport` (one worker thread per rank) and
:class:`ProcessTransport` (forked worker processes, results over pipes)
subclass it and replace only where a region's thunks run, so modelled
time and communication statistics are the same on all three.
``resolve_transport`` maps the drivers' ``transport=`` keyword onto an
instance.
"""

from .errors import (
    SUPERVISED_FAILURES,
    ResultUnpicklable,
    TransportCapabilityError,
    TransportError,
    TransportWorkerError,
    WorkerCrashed,
    WorkerHung,
)
from .ledger import ChargeEvent, ChargeLedger
from .model import CRAY_T3D, IDEAL, WORKSTATION_CLUSTER, MachineModel
from .processes import ProcessTransport
from .simulator import MAX_RETRANSMITS, CommStats, Simulator
from .supervision import SupervisionPolicy
from .threads import ThreadTransport
from .transport import (
    TRANSPORT_NAMES,
    LocalTransport,
    entry_transport,
    resolve_transport,
    run_region,
    transport_name,
)

__all__ = [
    "MachineModel",
    "CRAY_T3D",
    "WORKSTATION_CLUSTER",
    "IDEAL",
    "Simulator",
    "CommStats",
    "ChargeEvent",
    "ChargeLedger",
    "MAX_RETRANSMITS",
    "LocalTransport",
    "ThreadTransport",
    "ProcessTransport",
    "TransportError",
    "TransportCapabilityError",
    "TransportWorkerError",
    "WorkerCrashed",
    "WorkerHung",
    "ResultUnpicklable",
    "SUPERVISED_FAILURES",
    "SupervisionPolicy",
    "resolve_transport",
    "entry_transport",
    "run_region",
    "transport_name",
    "TRANSPORT_NAMES",
]
