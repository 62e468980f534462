"""Worker supervision for the worker transports (DESIGN.md §14).

The layer that makes worker failure a *first-class, typed, recoverable*
event on real threads and processes instead of an indefinite hang or a
bare string error.  Its pieces:

:class:`SupervisionPolicy`
    Frozen knobs for the region supervisor every
    :class:`~repro.machine.transport.LocalTransport` ``pardo`` runs
    under: a per-rank **deadline** (refreshed by heartbeats from
    long-running thunks), the readiness **poll interval**, and the
    bounded **region retry** budget.  ``deadline=None`` disables
    deadlines and restores the blocking collection path — the
    configuration ``benchmarks/e2e`` measures supervision against.
    The simulator runs its regions inline under the default policy, of
    which only the retry budget applies.

The failure taxonomy (:mod:`repro.machine.errors`)
    :class:`~repro.machine.errors.WorkerCrashed` (worker died: exitcode
    / signal, remote traceback when one made it out),
    :class:`~repro.machine.errors.WorkerHung` (no result or heartbeat
    within the deadline) and
    :class:`~repro.machine.errors.ResultUnpicklable` (the result could
    not cross the process boundary) — all under
    :class:`~repro.machine.errors.TransportWorkerError`.  Only this
    taxonomy triggers region retry: an application exception raised by
    a thunk is the driver's business and re-raises unchanged.

Fault injection
    There is one fault runtime, :class:`~repro.faults.plan.FaultRuntime`
    (DESIGN.md §14.3).  Every transport's ``pardo`` asks it once per
    region (``plan_region``) which ranks to crash, stall or hand a
    corrupt result, and retries the region that failed.
    :func:`wrap_injected_thunk` below is how the thread workers act the
    injection out (a process worker calls ``os._exit``, sleeps, or ships
    an undecodable blob; the simulator skips the thunk or drops its
    result).

Why region retry preserves bit-identity: the pure-thunk ``pardo``
discipline (read-shared / write-own, DESIGN.md §13) means a region has
**no effect** on coordinator state until the coordinator merges the
returned records, and a thunk may not touch the transport's clocks or
counters either (DESIGN.md §13.3).  A failed region therefore leaves
nothing to roll back — re-executing it from the same state reproduces
the same bits, and the factors, residual histories, modelled times and
recovery counts match an undisturbed run exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from ..faults import RegionInjection

__all__ = ["SupervisionPolicy", "wrap_injected_thunk"]


@dataclass(frozen=True)
class SupervisionPolicy:
    """Frozen configuration of the per-region worker supervisor.

    Attributes
    ----------
    deadline:
        Seconds a rank may go without delivering its result *or* a
        heartbeat before it is declared
        :class:`~repro.machine.errors.WorkerHung`.  ``None`` disables
        deadlines and polling entirely (blocking collection; crashes
        are still classified).
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
    """

    deadline: float | None = 30.0
    poll_interval: float = 0.02
    region_retries: int = 2
    heartbeat_interval: float = 1.0

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


class _InjectedWorkerCrash(BaseException):
    """Injected thread-worker crash marker.

    Deliberately a :class:`BaseException`: an application ``except
    Exception`` inside the thunk must not be able to swallow an injected
    crash, exactly as it could not swallow a child ``os._exit``.
    """


class _PoisonResult:
    """Stand-in result of an injected corrupt-result fault (threads).

    The collector maps it to
    :class:`~repro.machine.errors.ResultUnpicklable` — the thread twin
    of a process child shipping back an undecodable blob.
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
