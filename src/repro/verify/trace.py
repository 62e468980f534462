"""Happens-before access tracing for the SPMD machine simulator.

The parallel drivers in this library (parallel ILUT/ILUT*, the
distributed MIS, the level-scheduled triangular solves, the distributed
matvec) are correct only if every rank touches exclusively the objects
it owns between synchronisation points.  The
:class:`~repro.machine.Simulator` executes the real computation, so the
way to check that discipline mechanically is to have every driver
*declare* its shared-object accesses and then verify that any pair of
conflicting accesses from different ranks is ordered by a barrier,
collective, or send→recv message edge.

This module provides the recording half: :class:`AccessTracer` keeps one
**vector clock** per rank, advanced by the simulator's communication
events, and stores every declared access together with a snapshot of the
accessing rank's clock and the current barrier epoch.  The checking half
lives in :mod:`repro.verify.race`.

Clock protocol (standard message-passing vector clocks):

* ``send`` ticks the sender's own component, then attaches the updated
  clock to the message — so the attached component strictly exceeds the
  snapshot of every access made before the send, and equals the snapshot
  of accesses made after it;
* ``recv`` joins (elementwise max) the attached clock into the
  receiver's clock, then ticks the receiver's own component;
* barriers and collectives tick every rank's own component, join all
  clocks, and bump the **epoch** counter (used only for human-readable
  reports).

An access ``a`` is ordered before a cross-rank access ``b`` iff
``b.clock[a.rank] > a.clock[a.rank]`` — **strictly** greater, which
holds exactly when a chain of sync edges starting after ``a`` reached
``b``'s rank before ``b``.

Accesses themselves do not tick the clock, so every access between two
communication events of a rank shares one snapshot; identical
consecutive records are deduplicated, keeping the trace compact (sound
because every clock event ticks the rank's own component).

Granularity: one logical shared object per ``(space, index)`` pair —
e.g. ``("u-row", i)`` for a factor row, ``("x", j)`` for one entry of a
distributed vector, ``("mis-flag", v)`` for a Luby flag.  Declaring at
row granularity is exactly the ownership unit of the paper's algorithm.

This module deliberately imports nothing from the rest of the library so
the simulator can depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

READ = "read"
WRITE = "write"

__all__ = ["READ", "WRITE", "Access", "AccessTracer"]


@dataclass(frozen=True)
class Access:
    """One declared shared-object access.

    Attributes
    ----------
    rank:
        The accessing rank.
    kind:
        :data:`READ` or :data:`WRITE`.
    space:
        Name of the object family (``"u-row"``, ``"x"``, ...).
    index:
        Object index within the space (row number, vector entry, ...).
    clock:
        Snapshot of the rank's vector clock at access time.
    epoch:
        Barrier/collective count at access time (for reporting only).
    seq:
        Global record sequence number (program order within a rank).
    """

    rank: int
    kind: str
    space: str
    index: int
    clock: tuple[int, ...]
    epoch: int
    seq: int

    def describe(self) -> str:
        return (
            f"rank {self.rank} {self.kind} of ({self.space!r}, {self.index}) "
            f"in epoch {self.epoch}"
        )


def happens_before(a: Access, b: Access) -> bool:
    """True iff ``a`` is ordered before ``b`` by the recorded sync events.

    Same-rank accesses are ordered by program order; cross-rank accesses
    are ordered iff ``b``'s clock has caught up with ``a``'s rank
    component, i.e. a chain of message/barrier edges carried the
    knowledge of ``a`` to ``b``'s rank.
    """
    if a.rank == b.rank:
        return a.seq < b.seq
    return b.clock[a.rank] > a.clock[a.rank]


class AccessTracer:
    """Vector-clock recorder for per-rank shared-object accesses.

    Created by ``Simulator(nranks, model, trace=True)`` and advanced
    automatically by the simulator's ``send``/``recv``/``barrier``/
    collective calls; drivers declare accesses with :meth:`read`,
    :meth:`write` and :meth:`read_many`.
    """

    def __init__(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = int(nranks)
        self._vc: list[list[int]] = [[0] * self.nranks for _ in range(self.nranks)]
        self.epoch = 0
        self._cells: dict[tuple[str, int], list[Access]] = {}
        self._seq = 0
        self.num_accesses = 0

    # ------------------------------------------------------------------
    # communication events (called by the simulator)
    # ------------------------------------------------------------------

    def on_send(self, src: int) -> tuple[int, ...]:
        """Record a send: tick ``src``'s own component, return the clock
        to attach to the message."""
        self._vc[src][src] += 1
        return tuple(self._vc[src])

    def on_recv(self, dst: int, attached: tuple[int, ...] | None) -> None:
        """Record a receive: join the attached clock into ``dst``'s, then
        tick ``dst``'s own component."""
        if attached is not None:
            row = self._vc[dst]
            for i, c in enumerate(attached):
                if c > row[i]:
                    row[i] = c
        self._vc[dst][dst] += 1

    def on_collective(self) -> None:
        """Record a barrier/collective: tick every rank, join all clocks."""
        for r in range(self.nranks):
            self._vc[r][r] += 1
        joined = [max(vc[i] for vc in self._vc) for i in range(self.nranks)]
        for r in range(self.nranks):
            self._vc[r] = joined.copy()
        self.epoch += 1

    # ------------------------------------------------------------------
    # access declarations (called by the drivers)
    # ------------------------------------------------------------------

    def read(self, rank: int, space: str, index: int) -> None:
        """Declare that ``rank`` reads shared object ``(space, index)``."""
        self._record(rank, READ, space, int(index))

    def write(self, rank: int, space: str, index: int) -> None:
        """Declare that ``rank`` writes shared object ``(space, index)``."""
        self._record(rank, WRITE, space, int(index))

    def read_many(self, rank: int, space: str, indices: Iterable[int]) -> None:
        """Declare reads of every object ``(space, i)`` for ``i`` in ``indices``."""
        for i in indices:
            self._record(rank, READ, space, int(i))

    def write_many(self, rank: int, space: str, indices: Iterable[int]) -> None:
        """Declare writes of every object ``(space, i)`` for ``i`` in ``indices``.

        A batched driver that updates a whole level of a distributed
        vector with one scatter declares with this the same per-object
        accesses a row-by-row driver would.
        """
        for i in indices:
            self._record(rank, WRITE, space, int(i))

    def _record(self, rank: int, kind: str, space: str, index: int) -> None:
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range [0, {self.nranks})")
        cell = self._cells.setdefault((space, index), [])
        if cell:
            last = cell[-1]
            # identical re-access between two sync events: nothing new
            if (
                last.rank == rank
                and last.kind == kind
                and last.clock[rank] == self._vc[rank][rank]
            ):
                return
        acc = Access(
            rank=rank,
            kind=kind,
            space=space,
            index=index,
            clock=tuple(self._vc[rank]),
            epoch=self.epoch,
            seq=self._seq,
        )
        self._seq += 1
        self.num_accesses += 1
        cell.append(acc)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def cells(self) -> Iterator[tuple[tuple[str, int], list[Access]]]:
        """Iterate ``((space, index), accesses)`` in deterministic order."""
        for key in sorted(self._cells):
            yield key, self._cells[key]

    def accesses(self, space: str, index: int) -> list[Access]:
        """All recorded accesses of one shared object."""
        return list(self._cells.get((space, int(index)), []))

    def __repr__(self) -> str:
        return (
            f"AccessTracer(nranks={self.nranks}, objects={len(self._cells)}, "
            f"accesses={self.num_accesses}, epoch={self.epoch})"
        )
