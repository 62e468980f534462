"""The typed failures of the machine layer.

They live below both :mod:`~repro.machine.simulator` (which raises the
thunk-discipline errors) and the worker transports (which
raise the supervision taxonomy, DESIGN.md §14), so neither has to import
the other to name them.
"""

from __future__ import annotations

__all__ = [
    "TransportError",
    "TransportCapabilityError",
    "TransportWorkerError",
    "WorkerCrashed",
    "WorkerHung",
    "ResultUnpicklable",
    "SUPERVISED_FAILURES",
]


class TransportError(RuntimeError):
    """A transport-layer failure (worker death, misuse)."""


class TransportCapabilityError(TransportError, ValueError):
    """A feature was requested from a transport that cannot honour it.

    Raised by :func:`~repro.machine.transport.resolve_transport` when a
    request describes something the named transport does not do —
    instruments on ``"none"``, ``supervision=`` without workers, message
    drop / delay / duplicate faults on a worker transport, anything
    retrofitted onto a live instance — because silently ignoring the
    request would certify nothing.  Subclasses :class:`ValueError` so
    legacy callers catching the old validation error keep working.
    """


class TransportWorkerError(TransportError):
    """A worker rank died with an exception that could not be re-raised.

    Carries the rank and the worker-side traceback text.  The
    supervision layer (DESIGN.md §14) refines it into the typed
    taxonomy below; only those subclasses trigger region retry — a bare
    :class:`TransportWorkerError` is an *application* failure crossing
    a serialisation boundary and surfaces immediately.
    """

    def __init__(self, rank: int, message: str) -> None:
        super().__init__(f"rank {rank} failed: {message}")
        self.rank = rank


class WorkerCrashed(TransportWorkerError):
    """A worker died mid-region without delivering its result.

    For process workers carries the child ``exitcode`` (negative means
    killed by ``-exitcode``) and, when the death was a classified
    signal, ``signum``; ``remote_traceback`` holds the worker-side
    traceback when one made it out before the death.
    """

    def __init__(
        self,
        rank: int,
        message: str,
        *,
        exitcode: int | None = None,
        signum: int | None = None,
        remote_traceback: str = "",
    ) -> None:
        super().__init__(rank, message)
        self.exitcode = exitcode
        self.signum = signum
        self.remote_traceback = remote_traceback


class WorkerHung(TransportWorkerError):
    """A worker delivered neither result nor heartbeat within the deadline."""

    def __init__(self, rank: int, deadline: float) -> None:
        super().__init__(
            rank,
            f"no result or heartbeat within the {deadline:g}s supervision deadline",
        )
        self.deadline = deadline


class ResultUnpicklable(TransportWorkerError):
    """A worker finished but its result could not cross the boundary.

    ``remote_traceback`` carries the worker-side pickling traceback when
    the failure was detected in the worker; parent-side unpickling
    failures report the coordinator's exception instead.
    """

    def __init__(self, rank: int, message: str, *, remote_traceback: str = "") -> None:
        super().__init__(rank, message)
        self.remote_traceback = remote_traceback


#: The failure taxonomy the region supervisor retries on.
SUPERVISED_FAILURES = (WorkerCrashed, WorkerHung, ResultUnpicklable)
