"""Distributed-memory machine layer: the transport abstraction behind
the SPMD drivers.

Three interchangeable transports implement one contract (see
``transport.py`` / DESIGN.md §13): the cost-model :class:`Simulator`
(per-rank virtual clocks, Cray T3D preset and others; the deterministic
oracle and the only fault/race-instrumented backend), the
:class:`ThreadTransport` (one worker thread per rank), and the
:class:`ProcessTransport` (forked worker processes, shared-memory
arrays).  ``resolve_transport`` maps the drivers' ``transport=``
keyword onto an instance.
"""

from .ledger import ChargeEvent, ChargeLedger
from .model import CRAY_T3D, IDEAL, WORKSTATION_CLUSTER, MachineModel
from .processes import ProcessTransport
from .simulator import CommStats, Simulator, SimulatorSnapshot
from .supervision import (
    PortableFaultRuntime,
    SupervisionPolicy,
    unportable_faults,
)
from .threads import ThreadTransport
from .transport import (
    SUPERVISED_FAILURES,
    TRANSPORT_NAMES,
    LocalTransport,
    ResultUnpicklable,
    Transport,
    TransportCapabilityError,
    TransportError,
    TransportWorkerError,
    WorkerCrashed,
    WorkerHung,
    entry_transport,
    is_transport,
    resolve_transport,
    run_region,
    run_region_by_owner,
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
    "SimulatorSnapshot",
    "Transport",
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
    "PortableFaultRuntime",
    "unportable_faults",
    "is_transport",
    "resolve_transport",
    "entry_transport",
    "run_region",
    "run_region_by_owner",
    "transport_name",
    "TRANSPORT_NAMES",
]
