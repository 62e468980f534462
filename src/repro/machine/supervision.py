"""Worker supervision for the real transports (DESIGN.md §14).

PR 8 put the certified SPMD drivers on real threads and processes; this
module is the layer that makes worker failure a *first-class, typed,
recoverable* event there instead of an indefinite hang or a bare string
error.  Three pieces:

:class:`SupervisionPolicy`
    Frozen knobs for the region supervisor every
    :class:`~repro.machine.transport.LocalTransport` ``pardo`` runs
    under: a per-rank **deadline** (refreshed by heartbeats from
    long-running thunks), the readiness **poll interval**, and the
    bounded **region retry** budget.  ``deadline=None`` disables
    supervision and restores the legacy blocking collection path — that
    is the configuration the overhead benchmark compares against.

The failure taxonomy
    :class:`~repro.machine.transport.WorkerCrashed` (worker died:
    exitcode / signal, remote traceback when one made it out),
    :class:`~repro.machine.transport.WorkerHung` (no result or
    heartbeat within the deadline) and
    :class:`~repro.machine.transport.ResultUnpicklable` (the result
    could not cross the process boundary) — all under
    :class:`~repro.machine.transport.TransportWorkerError`.  They are
    *defined* next to their base in ``transport.py`` and re-exported
    here; ``except`` clauses may use either spelling.  Only this
    taxonomy triggers region retry: an application exception raised by
    a thunk is the driver's business and re-raises unchanged.

:class:`PortableFaultRuntime`
    The real-transport twin of :class:`~repro.faults.plan.FaultRuntime`
    for the **portable subset** of a :class:`~repro.faults.FaultPlan`:
    ``crash`` rank faults (child ``os._exit`` / thread exception),
    ``stall`` rank faults (injected sleep — past the deadline it is a
    hang), and ``corrupt`` message faults reinterpreted as
    *corrupt-result* (the rank's region result is replaced by an
    undecodable blob).  Drop / delay / duplicate need the simulator's
    virtual mailboxes and stay simulator-only —
    :func:`unportable_faults` is how ``resolve_transport`` rejects
    them with a typed error.  The same seeded plans therefore drive
    both the simulator oracle and real chaos tests.

Why region retry preserves bit-identity: the pure-thunk ``pardo``
discipline (read-shared / write-own, DESIGN.md §13) means a region has
**no effect** on coordinator state until the coordinator merges the
returned records.  A failed region leaves the coordinator intact except
for the transport's own counters, which ``snapshot``/``restore`` roll
back — so re-executing the region from the same state reproduces the
same bits, and the factors, residual histories and journal-style
recovery counts match an undisturbed run exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..faults.journal import FaultJournal
from .transport import (
    SUPERVISED_FAILURES,
    ResultUnpicklable,
    TransportCapabilityError,
    TransportWorkerError,
    WorkerCrashed,
    WorkerHung,
)

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

__all__ = [
    "SupervisionPolicy",
    "PortableFaultRuntime",
    "RegionInjection",
    "unportable_faults",
    "PORTABLE_MESSAGE_ACTIONS",
    "PORTABLE_RANK_ACTIONS",
    # taxonomy re-exports (defined in transport.py)
    "TransportWorkerError",
    "WorkerCrashed",
    "WorkerHung",
    "ResultUnpicklable",
    "SUPERVISED_FAILURES",
]

#: message-fault actions that port to real transports (as corrupt-result)
PORTABLE_MESSAGE_ACTIONS = ("corrupt",)
#: rank-fault actions that port to real transports
PORTABLE_RANK_ACTIONS = ("crash", "stall")


@dataclass(frozen=True)
class SupervisionPolicy:
    """Frozen configuration of the per-region worker supervisor.

    Attributes
    ----------
    deadline:
        Seconds a rank may go without delivering its result *or* a
        heartbeat before it is declared :class:`WorkerHung`.  ``None``
        disables deadlines and polling entirely (legacy blocking
        collection; crashes are still classified).
    poll_interval:
        Readiness-poll period of the supervised collection loop.
    region_retries:
        How many times a region that failed with a supervised error
        (crashed / hung / unpicklable worker) is re-executed from the
        coordinator's intact state before the error surfaces.  ``0``
        surfaces the first failure.
    heartbeat_interval:
        Minimum spacing of heartbeat frames a process-transport worker
        actually puts on the pipe (thread workers just stamp a shared
        timestamp, so their heartbeats are never rate-limited).
    kill_grace:
        Seconds a process worker whose pipe closed is given to exit by
        itself, so that it reports its own exit status, before it is
        SIGKILLed.  A hung worker is SIGKILLed at once.
    """

    deadline: float | None = 30.0
    poll_interval: float = 0.02
    region_retries: int = 2
    heartbeat_interval: float = 1.0
    kill_grace: float = 2.0

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive or None, got {self.deadline}")
        if self.poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {self.poll_interval}")
        if self.region_retries < 0:
            raise ValueError(f"region_retries must be >= 0, got {self.region_retries}")
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.kill_grace <= 0:
            raise ValueError(f"kill_grace must be positive, got {self.kill_grace}")


def unportable_faults(plan: "FaultPlan") -> list[str]:
    """The fault descriptions in ``plan`` that cannot run on a real transport.

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


@dataclass(frozen=True)
class RegionInjection:
    """One portable fault scheduled against one rank of one region."""

    kind: str  # "crash" | "stall" | "corrupt"
    stall: float = 0.0


class PortableFaultRuntime:
    """Mutable per-transport state of the portable subset of a plan.

    Faults disarm when *dispatched* (scheduled into a region), not when
    their effect is observed: region retry re-runs the same thunks, and
    a fault that re-fired on every attempt would never let the region
    complete.  This is the same fail-once-then-restart model the
    simulator's :class:`~repro.faults.plan.FaultRuntime` uses, so the
    same seeded plan recovers on every backend.
    """

    def __init__(self, plan: "FaultPlan") -> None:
        bad = unportable_faults(plan)
        if bad:
            raise TransportCapabilityError(
                f"fault plan is not portable to a real transport: {', '.join(bad)} "
                f"require the simulator (portable subset: rank faults "
                f"{'/'.join(PORTABLE_RANK_ACTIONS)}, message faults "
                f"{'/'.join(PORTABLE_MESSAGE_ACTIONS)} as corrupt-result)"
            )
        self.plan = plan
        self.journal = FaultJournal()
        self._seen = [0] * len(plan.message_faults)
        self._fired = [False] * len(plan.rank_faults)

    def plan_region(self, active: list[int], superstep: int) -> dict[int, RegionInjection]:
        """Schedule armed faults against the ranks of one region.

        Rank faults fire at the first region at or after their
        ``superstep`` in which their rank participates; a ``corrupt``
        message fault counts regions in which its target rank (``src``,
        or the lowest active rank) participates, honouring ``skip`` /
        ``count`` exactly like the simulator counts matching messages.
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
            if rank not in active:
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


class _InjectedWorkerCrash(BaseException):
    """Injected thread-worker crash marker.

    Deliberately a :class:`BaseException`: an application ``except
    Exception`` inside the thunk must not be able to swallow an injected
    crash, exactly as it could not swallow a child ``os._exit``.
    """


class _PoisonResult:
    """Stand-in result of an injected corrupt-result fault (threads).

    The collector maps it to :class:`ResultUnpicklable` — the thread
    twin of a process child shipping back an undecodable blob.
    """


def wrap_injected_thunk(
    thunk: Callable[[], Any], injection: RegionInjection | None
) -> Callable[[], Any]:
    """Apply a scheduled injection to one thread-worker thunk."""
    if injection is None:
        return thunk

    def wrapped() -> Any:
        if injection.kind == "crash":
            raise _InjectedWorkerCrash("injected worker crash")
        if injection.kind == "stall":
            time.sleep(injection.stall)
            return thunk()
        thunk()  # corrupt-result: do the work, poison the returned payload
        return _PoisonResult()

    return wrapped
