"""The two-phase parallel ILUT/ILUT* elimination engine (paper §4).

The engine executes the full parallel algorithm in *original* matrix
indices, assigning elimination positions as it goes:

Phase 1 (fully local, no communication)
    Every rank ILUT-factors its **interior** rows (ascending original
    index), then eliminates the factored interior unknowns from its
    **interface** rows (Algorithm 4.1 with the interior block as the
    eliminated set), leaving each interface row split into an L part
    (columns of factored nodes) and a *reduced row* over interface
    columns.  The union of reduced rows is the global reduced matrix
    ``A_I``.

Phase 2 (iterative, level-synchronised)
    Repeat: compute a maximal independent set ``I_l`` of the current
    reduced matrix with the two-step Luby algorithm; factor the rows of
    ``I_l`` (independent — just apply the U-side dropping); eliminate
    their unknowns from every remaining reduced row (Algorithm 4.1),
    applying the 3rd dropping rule — ILUT keeps every reduced entry above
    the relative threshold, ILUT*(m,t,k) caps the reduced row at ``k*m``
    entries.  Rows of ``I_l`` owned by other ranks must be communicated;
    since ``I_l`` is independent, the needed rows are known *before* any
    computation — the property the paper exploits to make the exchange a
    single aggregated message per rank pair per level.

All communication and computation flows through a transport when one
is supplied (the :class:`~repro.machine.Simulator`, or one of its
worker-backed subclasses :class:`~repro.machine.ThreadTransport` /
:class:`~repro.machine.ProcessTransport`);
passing ``sim=None`` executes the identical algorithm without any
transport (used by tests to confirm the transports never change
numerics).

Transport portability (DESIGN.md §13)
-------------------------------------
Each phase is organised as a **parallel region**: per-rank pure thunks
(``_compute_*``) dispatched through :func:`repro.machine.run_region`,
whose returned :class:`_RowRecord`s the coordinator merges
(``_merge_record``) in the same deterministic global order the
historical inline loops used — rank-major for phase 1, independent-set
order for level factorization, ascending row order for the
reduced-matrix update.  Thunks read shared engine state but never
mutate it; all state writes, tracer declarations and cost charges are
replayed at merge time, at the original per-row granularity.  The merge
order plus per-row charge replay is what makes factors, modeled times
and fault-journal signatures bit-identical across all transports (the
simulator runs regions sequentially in rank order, so it also
reproduces the pre-transport behaviour bit for bit).

Wherever pivots can depend on each other — phase 1, and the §7
partition engine's domains — a thunk body eliminates its rows one at a
time with the scalar row kernel (:mod:`repro.ilu.row`: Algorithm 4.1 on
a ``dict`` working row over list-cached pivot rows, plus the
dropping-rule tails), through the engine's thin wrappers ``_eliminate``
/ ``_u_row`` / ``_reduced_row``; the bodies differ only in which columns
are pivots, where pivot rows come from (rows the thunk just finished, or
the merged ``u_rows`` through a :class:`~repro.ilu.row.PivotRows` cache)
and which tail finishes the row.  The phase-2 update is the one place
that is batched: the rows of ``I_l`` are independent, so a rank's thunk
eliminates the whole level from all of its reduced rows in one array
pass (:func:`repro.ilu.level.level_update`), bit for bit what the row
kernel would produce row by row — DESIGN.md §13.2.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ..decomp import DomainDecomposition
from ..faults import MessageLost, RankFailure
from ..graph import Graph, two_step_luby_mis
from ..machine import Simulator, run_region, run_region_by_owner
from ..resilience import PivotPolicy
from ..sparse import CSRMatrix
from .factors import ILUFactors, LevelStructure
from .level import LevelPivots, flatten_rows, level_pivots, level_update
from .row import (
    Entries,
    PivotRow,
    PivotRows,
    eliminate_row,
    entries_of,
    l_row,
    reduced_row,
    row_arrays,
    u_row,
    u_row_arrays,
)

__all__ = ["EliminationEngine", "EliminationOutcome"]

# bounded retransmit attempts per receive before the loss is escalated to
# the checkpoint-recovery layer (or the caller, without checkpoints)
MAX_RETRANSMITS = 3

# modelled cost (in "operations") of copying one word while rebuilding a
# reduced row — the data-movement overhead the paper attributes to ILUT's
# dense reduced matrices.  Charged through the same flop-time channel.
COPY_OPS_PER_WORD = 0.5
# modelled cost of scanning one adjacency entry during a Luby MIS round
MIS_OPS_PER_EDGE = 1.0

_EMPTY_ROW = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))


class _RowRecord(NamedTuple):
    """What a region thunk returns per row, for the coordinator to merge.

    ``None`` fields are absent: a row gets a ``u_row`` when it is
    factored and a ``reduced_row`` when it stays in the reduced matrix;
    ``copy_words`` is charged only for rebuilt reduced rows; ``decls``
    exist only under a tracer.
    """

    row: int
    l_row: tuple[np.ndarray, np.ndarray] | None
    u_row: tuple[np.ndarray, np.ndarray] | None
    reduced_row: tuple[np.ndarray, np.ndarray] | None
    ops: float
    copy_words: float | None
    decls: list[tuple] | None


@dataclass
class EliminationOutcome:
    """Everything the engine produces besides the factors themselves."""

    factors: ILUFactors
    num_levels: int
    level_sizes: list[int] = field(default_factory=list)
    flops: float = 0.0
    words_copied: float = 0.0
    u_rows_communicated: int = 0
    recoveries: int = 0


@dataclass
class _EngineCheckpoint:
    """Per-level snapshot of the elimination state (plus the simulator's).

    Row payloads are ``(cols, vals)`` tuples the engine always *replaces*
    and never mutates in place, so shallow dict copies are sufficient.
    """

    u_rows: dict[int, tuple[np.ndarray, np.ndarray]]
    l_rows: dict[int, tuple[np.ndarray, np.ndarray]]
    reduced: dict[int, tuple[np.ndarray, np.ndarray]]
    pos: np.ndarray
    order: list[int]
    level_sizes: list[int]
    flops_total: float
    words_copied: float
    u_rows_comm: int
    interface_levels: list[np.ndarray]
    level: int
    sim_snap: object | None


class EliminationEngine:
    """One full parallel ILUT(*) elimination over a decomposed matrix.

    Parameters
    ----------
    decomp:
        Row-to-rank assignment with interior/interface classification.
    m, t:
        The ILUT dual dropping parameters.
    reduced_cap:
        ``None`` → plain ILUT (reduced rows only thresholded);
        an integer → ILUT*-style cap on reduced-row length (``k*m``).
    sim:
        Optional transport the elimination runs against: the cost-model
        :class:`~repro.machine.Simulator` (charged exactly as before) or
        a real :class:`~repro.machine.ThreadTransport` /
        :class:`~repro.machine.ProcessTransport` whose parallel regions
        genuinely execute the per-rank thunks concurrently.  Factors are
        bit-identical across all of them.
    mis_rounds:
        Luby augmentation rounds per independent set (paper uses 5).
    seed:
        Seed for the per-level MIS randomness.
    diag_guard:
        Replace exactly-zero pivots with the row's relative tolerance.
    pivot_policy:
        Full small/zero-pivot remediation
        (:class:`~repro.resilience.PivotPolicy`); overrides
        ``diag_guard`` when given.
    checkpoint:
        Snapshot the elimination + simulator state after phase 1 and
        after every completed phase-2 level, and recover from injected
        rank crashes / exhausted retransmits by rolling back to the last
        completed level (``max_recoveries`` bounds the attempts).  The
        recomputation is deterministic, so a recovered run produces
        factors bit-identical to an undisturbed one.
    level_hook:
        Optional callback ``level_hook(level, iset, reduced)`` invoked
        after phase 1 (``level=-1``, empty ``iset``) and after every
        phase-2 update, with the live reduced-row dict — used by tests to
        assert per-level invariants such as the 3rd dropping rule's
        ``k*m`` cap.

    When ``sim`` was built with ``trace=True``, every shared-object
    access (A rows, U rows, L rows, reduced rows) is declared to the
    simulator's tracer, so the race detector can certify the ownership
    discipline of both phases.
    """

    def __init__(
        self,
        decomp: DomainDecomposition,
        m: int,
        t: float,
        *,
        reduced_cap: int | None = None,
        sim: Simulator | None = None,
        mis_rounds: int = 5,
        seed: int = 0,
        diag_guard: bool = True,
        pivot_policy: PivotPolicy | None = None,
        checkpoint: bool = False,
        max_recoveries: int = 8,
        max_levels: int | None = None,
        level_hook: Callable[[int, np.ndarray, dict], None] | None = None,
        backend: str | None = None,
    ) -> None:
        if m < 0:
            raise ValueError(f"m must be non-negative, got {m}")
        if t < 0:
            raise ValueError(f"t must be non-negative, got {t}")
        if reduced_cap is not None and reduced_cap < 1:
            raise ValueError(f"reduced_cap must be >= 1, got {reduced_cap}")
        self.decomp = decomp
        self.A = decomp.A
        self.n = self.A.shape[0]
        self.m = int(m)
        self.t = float(t)
        self.reduced_cap = reduced_cap
        self.sim = sim
        self.mis_rounds = int(mis_rounds)
        self.seed = int(seed)
        self.diag_guard = diag_guard
        self.pivot_policy = (
            pivot_policy if pivot_policy is not None else PivotPolicy.from_diag_guard(diag_guard)
        )
        self.checkpoint = bool(checkpoint)
        self.max_recoveries = int(max_recoveries)
        self.recoveries = 0
        self.max_levels = max_levels if max_levels is not None else self.n + 1
        self.level_hook = level_hook
        self._tr = sim.tracer if sim is not None else None
        # liveness signal for the worker supervisor (DESIGN.md §14), per
        # row in the scalar kernel and per call in the level kernel: a
        # no-op on the simulator/coordinator, a timestamp or pipe frame
        # inside real-transport workers
        self._hb = sim.heartbeat if sim is not None else (lambda: None)

        # reference norms under every backend: identical drop thresholds
        self.norms = self.A.row_norms(ord=2, backend="reference")
        self.pos = np.full(self.n, -1, dtype=np.int64)  # elimination position
        self.order: list[int] = []  # original index per position
        # U rows in original indices, diagonal first: orig -> (cols, vals)
        self.u_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # accumulated L rows (factored columns): orig -> (cols, vals)
        self.l_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # current reduced rows over unfactored interface columns
        self.reduced: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.level_sizes: list[int] = []
        self.flops_total = 0.0
        self.words_copied = 0.0
        self.u_rows_comm = 0
        # accepted and validated for the callers' sake; the engine runs the
        # same kernels (repro.ilu.row, repro.ilu.level) under every name
        from ..kernels.backend import resolve_backend

        self.backend = resolve_backend(backend)

    # ------------------------------------------------------------------
    # transport helpers (no-ops without a transport)
    # ------------------------------------------------------------------

    def _replay_decls(self, rank: int, decls) -> None:
        """Replay a thunk's recorded tracer declarations at merge time.

        Records exist only when the transport's tracer is active;
        replaying them in recorded order preserves the exact access
        stream of the historical inline loops.
        """
        if decls:
            tr = self._tr
            for kind, space, idx in decls:
                if kind == "r":
                    tr.read(rank, space, idx)
                else:
                    tr.write(rank, space, idx)

    def _charge_ops(self, rank: int, ops: float) -> None:
        self.flops_total += ops
        if self.sim is not None:
            self.sim.compute(rank, ops)

    def _charge_copy(self, rank: int, words: float) -> None:
        self.words_copied += words
        if self.sim is not None:
            self.sim.compute(rank, words * COPY_OPS_PER_WORD)

    def _barrier(self) -> None:
        if self.sim is not None:
            self.sim.barrier()

    def _recv_retry(self, src: int, dst: int, tag: object, nwords: float) -> object:
        """Receive with bounded retransmission under fault injection.

        The engine's payloads are accounting-only (``None``); what must
        be replayed on a loss is the *charge* — the sender re-posts the
        same message (journaled as ``retransmit``) up to
        :data:`MAX_RETRANSMITS` times before the loss escalates to the
        checkpoint-recovery layer.
        """
        assert self.sim is not None
        for attempt in range(MAX_RETRANSMITS + 1):
            try:
                return self.sim.recv(dst, src, tag=tag)
            except MessageLost:
                if attempt == MAX_RETRANSMITS:
                    raise
                faults = self.sim.faults
                if faults is not None:
                    faults.journal.record(
                        "retransmit",
                        superstep=self.sim.superstep,
                        src=src,
                        dst=dst,
                        tag=tag,
                        detail=f"attempt {attempt + 1}",
                    )
                self.sim.send(src, dst, None, nwords, tag=tag)
        raise AssertionError("unreachable")

    def _merge_record(self, rank: int, rec: _RowRecord) -> None:
        """Apply one thunk record to the engine state (coordinator side).

        Replays the row's declarations, stores whichever of its L /
        U / reduced rows the record carries (a U row means the row was
        factored: it leaves the reduced matrix and takes the next
        elimination position), then replays its charges.  The *order* in
        which callers feed records here is the engine's numerics.
        """
        self._replay_decls(rank, rec.decls)
        i = rec.row
        if rec.l_row is not None:
            self.l_rows[i] = rec.l_row
        if rec.u_row is not None:
            self.reduced.pop(i, None)
            self.u_rows[i] = rec.u_row
            self.pos[i] = len(self.order)
            self.order.append(i)
        if rec.reduced_row is not None:
            self.reduced[i] = rec.reduced_row
        self._charge_ops(rank, rec.ops)
        if rec.copy_words is not None:
            self._charge_copy(rank, rec.copy_words)

    # ------------------------------------------------------------------
    # the row kernel (repro.ilu.row) bound to this engine's parameters
    # ------------------------------------------------------------------

    def _tau(self, i: int) -> float:
        return float(self.t * self.norms[i])

    def _eliminate(
        self,
        i: int,
        cols: np.ndarray,
        vals: np.ndarray,
        pkey: list[int],
        pivot_rows: Mapping[int, PivotRow],
        decls: list[tuple] | None,
    ) -> tuple[int, tuple[np.ndarray, np.ndarray], Entries]:
        """Algorithm 4.1 on row ``i = (cols, vals)`` against the
        ``pkey`` pivots (:func:`repro.ilu.row.eliminate_row`).

        Returns ``(ops, l_row, rest)``: the operation count, the row's L
        part (its old L row merged with the surviving multipliers,
        thresholded and cut to the ``m`` largest) and what is left of
        the row over non-pivot columns, before any 2nd/3rd-rule
        dropping.  Called from inside region thunks: reads engine state,
        writes only ``pivot_rows`` (a thunk-local cache) and ``decls``.
        """
        self._hb()
        tau = self._tau(i)
        ops, reads, multipliers, rest = eliminate_row(
            cols.tolist(), vals.tolist(), tau, pkey, pivot_rows
        )
        if decls is not None:
            decls += [("r", "u-row", k) for k in reads]
        old = entries_of(self.l_rows.get(i, _EMPTY_ROW))
        return ops, row_arrays(l_row(old, multipliers, tau, self.m)), rest

    def _u_row(self, i: int, rest: Entries) -> PivotRow:
        """2nd dropping rule, U side, for a row over unfactored columns:
        threshold, keep the ``m`` largest, resolve the pivot."""
        return u_row(i, rest, self._tau(i), self.m, self.pivot_policy, self.norms[i])

    def _reduced_row(self, i: int, rest: Entries) -> tuple[np.ndarray, np.ndarray]:
        """3rd dropping rule for a row over unfactored columns:
        threshold, the optional ``reduced_cap``, diagonal always kept."""
        return row_arrays(reduced_row(i, rest, self._tau(i), self.reduced_cap))

    def _pivot_keys(self, pivots: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """The pivot-key array of a pivot set: ``keys`` at ``pivots``,
        ``-1`` elsewhere (the row kernel takes it as a list)."""
        pkey = np.full(self.n, -1, dtype=np.int64)
        pkey[pivots] = keys
        return pkey

    # ------------------------------------------------------------------
    # phase 1: interior factorization + interface reduction
    # ------------------------------------------------------------------

    def _compute_interior_block(self, rank: int) -> list[_RowRecord]:
        """Pure per-rank thunk body: ILUT over ``rank``'s interior rows
        in ascending original index.

        Interior rows reference only local columns, so this is exactly
        the sequential ILUT restricted to the block; interface columns
        land in the U part (they are eliminated later).  A rank's pivots
        are its own earlier interior rows, kept thunk-local in the form
        the row kernel reads.
        """
        trace = self._tr is not None
        pkey = [-1] * self.n
        pivot_rows: dict[int, PivotRow] = {}
        records: list[_RowRecord] = []
        for i in self.decomp.interior_rows(rank).tolist():
            cols, vals = self.A.row(i)
            decls: list[tuple] | None = [("r", "A-row", i)] if trace else None
            ops, l_part, rest = self._eliminate(i, cols, vals, pkey, pivot_rows, decls)
            pivot_rows[i] = self._u_row(i, rest)
            pkey[i] = i
            if trace:
                decls += [("w", "l-row", i), ("w", "u-row", i)]
            records.append(
                _RowRecord(i, l_part, u_row_arrays(i, pivot_rows[i]), None, ops, None, decls)
            )
        return records

    def _compute_interface_reduction(self, rank: int) -> list[_RowRecord]:
        """Pure per-rank thunk body: eliminate the rank's factored
        interior unknowns from its interface rows.

        Interface rows reference only *local* interior nodes (a remote
        interior node would have a cross-domain neighbour, contradiction),
        so no communication is needed — the paper's phase-1 property.
        """
        trace = self._tr is not None
        interior = self.decomp.interior_rows(rank)
        pkey = self._pivot_keys(interior, interior).tolist()
        pivot_rows = PivotRows(self.u_rows)
        records: list[_RowRecord] = []
        for i in self.decomp.interface_rows(rank).tolist():
            cols, vals = self.A.row(i)
            decls: list[tuple] | None = [("r", "A-row", i)] if trace else None
            records.append(self._update_record(i, cols, vals, pkey, pivot_rows, decls))
        return records

    def _update_record(
        self,
        i: int,
        cols: np.ndarray,
        vals: np.ndarray,
        pkey: list[int],
        pivot_rows: Mapping[int, PivotRow],
        decls: list[tuple] | None,
    ) -> _RowRecord:
        """Eliminate the ``pkey`` pivots from a row that stays in the
        reduced matrix: Algorithm 4.1, then the 3rd dropping rule."""
        ops, l_part, rest = self._eliminate(i, cols, vals, pkey, pivot_rows, decls)
        reduced_part = self._reduced_row(i, rest)
        if decls is not None:
            decls += [("w", "l-row", i), ("w", "reduced-row", i)]
        copy_words = float(reduced_part[0].size + l_part[0].size)
        return _RowRecord(i, l_part, None, reduced_part, ops, copy_words, decls)

    # ------------------------------------------------------------------
    # phase 2: iterative independent-set factorization of A_I
    # ------------------------------------------------------------------

    def _remaining_nodes(self) -> np.ndarray:
        return np.asarray(sorted(self.reduced.keys()), dtype=np.int64)

    def _reduced_structure(self, remaining: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The directed structure of the reduced matrix over the remaining
        nodes: one ``(src, dst)`` pair per stored off-diagonal entry, as
        positions in the sorted ``remaining``, in row-major order."""
        rows = [self.reduced[g][0] for g in remaining.tolist()]
        counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        cols = np.concatenate(rows)
        src = np.repeat(np.arange(remaining.size, dtype=np.int64), counts)
        dst = np.searchsorted(remaining, cols)
        stray = remaining[np.minimum(dst, remaining.size - 1)] != cols
        if stray.any():
            raise KeyError(int(cols[stray][0]))  # a column that is not a remaining node
        off_diag = src != dst
        return src[off_diag], dst[off_diag]

    def _mis_of_reduced(self, remaining: np.ndarray, level: int) -> np.ndarray:
        """Two-step Luby MIS on the *directed* structure of the reduced rows.

        Builds a compact graph over the remaining nodes whose adjacency of
        ``v`` is exactly the off-diagonal column set of ``v``'s reduced
        row — the one-directional visibility the two-step algorithm is
        designed for.  Charges per-round scan and boundary-exchange costs.
        """
        nloc = remaining.size
        owner = self.decomp.part[remaining]
        if self._tr is not None:
            # each owner scans the structure of its own reduced rows
            for g, r in zip(remaining.tolist(), owner.tolist()):
                self._tr.read(r, "reduced-row", g)
        e_src, e_dst = self._reduced_structure(remaining)
        graph = Graph.from_edges(nloc, e_src, e_dst)
        mis_local = two_step_luby_mis(
            graph, seed=self.seed + 1000 * (level + 1), rounds=self.mis_rounds
        )
        # cost model: each round scans every active adjacency entry once per
        # step (two steps), plus a boundary key exchange and two barriers.
        if self.sim is not None:
            nranks = self.sim.nranks
            edges_per_rank = np.bincount(owner, weights=graph.degrees(), minlength=nranks)
            # one word per adjacency entry whose two ends live on different
            # ranks, aggregated per ordered rank pair, pairs ascending
            src_owner, dst_owner = owner[e_src], owner[e_dst]
            cut = src_owner != dst_owner
            pairs, counts = np.unique(
                src_owner[cut] * nranks + dst_owner[cut], return_counts=True
            )
            boundary_words = [
                (divmod(pair, nranks), float(cnt))
                for pair, cnt in zip(pairs.tolist(), counts.tolist())
            ]
            for _ in range(self.mis_rounds):
                for r in range(nranks):
                    self.sim.compute(r, 2.0 * MIS_OPS_PER_EDGE * edges_per_rank[r])
                for (src, dst), cnt in boundary_words:
                    self.sim.send(src, dst, None, cnt, tag=("mis", level))
                for (src, dst), cnt in boundary_words:
                    self._recv_retry(src, dst, ("mis", level), cnt)
                self.sim.barrier()
                self.sim.barrier()  # the two-step insert/remove barrier pair
        return remaining[mis_local]

    def _factor_level(self, iset: np.ndarray) -> None:
        """Factor the independent rows of ``I_l`` (U-side dropping only).

        Every off-diagonal entry of an independent row's reduced row sits
        at an unfactored column, i.e. in the U part — factoring is just
        the 2nd rule's U side: threshold, then keep the ``m`` largest.
        One parallel region (rows grouped by owner); the merge walks the
        independent set in its given order, so elimination positions and
        charge order match the historical inline loop exactly.
        """
        part = self.decomp.part
        merged = run_region_by_owner(
            self.sim, self.decomp.nranks, iset, part, self._compute_level_rows
        )
        for i in iset.tolist():
            self._merge_record(int(part[i]), merged[i])

    def _compute_level_rows(self, rank: int, rows: list[int]) -> list[_RowRecord]:
        """Pure thunk body for one rank's share of an independent set."""
        trace = self._tr is not None
        records: list[_RowRecord] = []
        for i in rows:
            self._hb()
            cols, vals = self.reduced[i]
            decls = [("r", "reduced-row", i), ("w", "u-row", i)] if trace else None
            u_part = u_row_arrays(i, self._u_row(i, entries_of((cols, vals))))
            records.append(_RowRecord(i, None, u_part, None, float(cols.size), None, decls))
        return records

    def _exchange_level_rows(self, pkey: np.ndarray, tag: object) -> None:
        """Charge the u-row exchange for this level's pivots.

        Every remaining reduced row knows (before computing anything —
        independence guarantees no new pivots appear) which freshly
        factored rows it eliminates against; rows owned elsewhere must
        be received.  One aggregated message per (src, dst) rank pair.
        """
        if self.sim is None:
            return
        part = self.decomp.part
        need: dict[tuple[int, int], set[int]] = {}
        for i, (cols, _vals) in sorted(self.reduced.items()):
            r = int(part[i])
            for k in cols[pkey[cols] >= 0]:
                s = int(part[k])
                if s != r:
                    need.setdefault((s, r), set()).add(int(k))
        pair_words: dict[tuple[int, int], float] = {}
        for (src, dst), rows_needed in sorted(need.items()):
            words = sum(
                self.u_rows[k][0].size * 2.0 for k in sorted(rows_needed)
            )  # indices + values
            pair_words[(src, dst)] = words
            self.sim.send(src, dst, None, words, tag=tag)
            self.u_rows_comm += len(rows_needed)
        for (src, dst), _rows_needed in sorted(need.items()):
            self._recv_retry(src, dst, tag, pair_words[(src, dst)])

    def _update_remaining(self, pkey: np.ndarray) -> None:
        """Eliminate the ``pkey`` pivots from every remaining reduced
        row, one row at a time — for pivot sets that may depend on each
        other (pivots reached through fill are followed).

        Algorithm 4.1 over the pivots present in each row, then merge
        the new multipliers into the L row and re-apply the 3rd
        dropping rule.
        """
        self._update_region(lambda _rank, mine: self._compute_update_rows(mine, pkey))

    def _update_level(self, pivots: LevelPivots) -> None:
        """Eliminate one *independent* level from every remaining
        reduced row: each rank's thunk is one batched pass over all of
        its rows, with the records :meth:`_update_remaining` would
        produce."""
        self._update_region(lambda _rank, mine: self._compute_level_update(mine, pivots))

    def _update_region(self, body: Callable[[int, list[int]], list[_RowRecord]]) -> None:
        """One region over the remaining reduced rows, grouped by owner."""
        part = self.decomp.part
        rows = sorted(self.reduced.keys())
        merged = run_region_by_owner(self.sim, self.decomp.nranks, rows, part, body)
        # merge in ascending row order — the historical inline order, which
        # interleaves ranks and fixes the global charge/trace sequence
        for i in rows:
            rec = merged.get(i)
            if rec is not None:  # else: row held no pivots, untouched this level
                self._merge_record(int(part[i]), rec)

    def _compute_update_rows(self, rows: list[int], pkey: np.ndarray) -> list[_RowRecord]:
        """Pure thunk body: apply Algorithm 4.1 to one rank's reduced
        rows.  Rows without pivots produce no record."""
        trace = self._tr is not None
        keys = pkey.tolist()
        pivot_rows = PivotRows(self.u_rows)
        records: list[_RowRecord] = []
        for i in rows:
            cols, vals = self.reduced[i]
            if not np.any(pkey[cols] >= 0):
                continue
            decls: list[tuple] | None = [("r", "reduced-row", i)] if trace else None
            records.append(self._update_record(i, cols, vals, keys, pivot_rows, decls))
        return records

    def _compute_level_update(self, rows: list[int], pivots: LevelPivots) -> list[_RowRecord]:
        """Pure thunk body: the level kernel over one rank's reduced
        rows, split back into the per-row records (and, under a tracer,
        the per-row declarations) of the scalar path."""
        self._hb()
        ids = np.asarray(rows, dtype=np.int64)
        out = level_update(
            pivots,
            ids,
            flatten_rows([self.reduced[i] for i in rows]),
            flatten_rows([self.l_rows.get(i, _EMPTY_ROW) for i in rows]),
            self.t * self.norms[ids],
            self.m,
            self.reduced_cap,
        )
        trace = self._tr is not None
        lp, rp, dp = out.l_rows.ptr.tolist(), out.reduced.ptr.tolist(), out.read_ptr.tolist()
        ops = out.ops.tolist()
        records: list[_RowRecord] = []
        for j in out.touched.tolist():
            i = rows[j]
            l_lo, l_hi, r_lo, r_hi = lp[j], lp[j + 1], rp[j], rp[j + 1]
            decls: list[tuple] | None = None
            if trace:
                decls = [("r", "reduced-row", i)]
                decls += [("r", "u-row", k) for k in out.read_cols[dp[j] : dp[j + 1]].tolist()]
                decls += [("w", "l-row", i), ("w", "reduced-row", i)]
            records.append(
                _RowRecord(
                    i,
                    (out.l_rows.cols[l_lo:l_hi], out.l_rows.vals[l_lo:l_hi]),
                    None,
                    (out.reduced.cols[r_lo:r_hi], out.reduced.vals[r_lo:r_hi]),
                    ops[j],
                    float(r_hi - r_lo + l_hi - l_lo),
                    decls,
                )
            )
        return records

    # ------------------------------------------------------------------
    # checkpoint / recovery
    # ------------------------------------------------------------------

    def _take_checkpoint(
        self, interface_levels: list[np.ndarray], level: int
    ) -> _EngineCheckpoint:
        return _EngineCheckpoint(
            u_rows=dict(self.u_rows),
            l_rows=dict(self.l_rows),
            reduced=dict(self.reduced),
            pos=self.pos.copy(),
            order=list(self.order),
            level_sizes=list(self.level_sizes),
            flops_total=self.flops_total,
            words_copied=self.words_copied,
            u_rows_comm=self.u_rows_comm,
            interface_levels=list(interface_levels),
            level=level,
            sim_snap=self.sim.snapshot() if self.sim is not None else None,
        )

    def _restore_checkpoint(
        self, ckpt: _EngineCheckpoint, err: BaseException
    ) -> tuple[list[np.ndarray], int]:
        """Roll the elimination (and simulator) back to ``ckpt``.

        Copies on the way out too, so the same checkpoint survives a
        second recovery.  Returns ``(interface_levels, level)`` for the
        driver loop to resume with.
        """
        self.u_rows = dict(ckpt.u_rows)
        self.l_rows = dict(ckpt.l_rows)
        self.reduced = dict(ckpt.reduced)
        self.pos = ckpt.pos.copy()
        self.order = list(ckpt.order)
        self.level_sizes = list(ckpt.level_sizes)
        self.flops_total = ckpt.flops_total
        self.words_copied = ckpt.words_copied
        self.u_rows_comm = ckpt.u_rows_comm
        if self.sim is not None and ckpt.sim_snap is not None:
            self.sim.restore(
                ckpt.sim_snap,
                reason=f"resume from level {ckpt.level} after {type(err).__name__}: {err}",
            )
        self.recoveries += 1
        return list(ckpt.interface_levels), ckpt.level

    def _can_recover(self) -> bool:
        return (
            self.checkpoint
            and self.sim is not None
            and self.recoveries < self.max_recoveries
        )

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def _run_phase1(self) -> list[tuple[int, int]]:
        nranks = self.decomp.nranks

        def region(body) -> list[tuple[int, int]]:
            """One all-ranks region merged rank-major; returns the
            elimination-position range each rank's records took."""
            results = run_region(
                self.sim, [(lambda r=r: body(r)) for r in range(nranks)]
            )
            ranges: list[tuple[int, int]] = []
            for r in range(nranks):
                start = len(self.order)
                for rec in results[r]:
                    self._merge_record(r, rec)
                ranges.append((start, len(self.order)))
            return ranges

        interior_ranges = region(self._compute_interior_block)
        region(self._compute_interface_reduction)
        self._barrier()  # end of phase 1
        return interior_ranges

    def run(self) -> EliminationOutcome:
        """Execute phases 1 and 2 and assemble the permuted factors.

        With ``checkpoint=True`` the loop snapshots after phase 1 and
        after every completed level; an injected
        :class:`~repro.faults.RankFailure` (or a message loss that
        survived every retransmit) rolls back to the last completed
        level and recomputes — deterministically, so the final factors
        are bit-identical to an undisturbed run.
        """
        ckpt = self._take_checkpoint([], -1) if self.checkpoint else None
        while True:
            try:
                interior_ranges = self._run_phase1()
                break
            except (RankFailure, MessageLost) as err:
                if ckpt is None or not self._can_recover():
                    raise
                self._restore_checkpoint(ckpt, err)
        if self.level_hook is not None:
            self.level_hook(-1, np.empty(0, dtype=np.int64), self.reduced)

        interface_levels: list[np.ndarray] = []
        level = 0
        if self.checkpoint:
            ckpt = self._take_checkpoint(interface_levels, level)
        while self.reduced:
            if level >= self.max_levels:
                raise RuntimeError(
                    f"interface factorization did not terminate in {level} levels"
                )
            try:
                remaining = self._remaining_nodes()
                iset = self._mis_of_reduced(remaining, level)
                if iset.size == 0:
                    raise RuntimeError("empty independent set — cannot make progress")
                pos_start = len(self.order)
                self._factor_level(iset)
                pivots = level_pivots(self.n, iset, self.u_rows)
                self._exchange_level_rows(pivots.ordinal, ("urow", level))
                self._update_level(pivots)
                self._barrier()
            except (RankFailure, MessageLost) as err:
                if ckpt is None or not self._can_recover():
                    raise
                interface_levels, level = self._restore_checkpoint(ckpt, err)
                continue
            if self.level_hook is not None:
                self.level_hook(level, iset, self.reduced)
            interface_levels.append(
                np.arange(pos_start, len(self.order), dtype=np.int64)
            )
            self.level_sizes.append(int(iset.size))
            level += 1
            if self.checkpoint:
                ckpt = self._take_checkpoint(interface_levels, level)

        factors = self._assemble(interior_ranges, interface_levels)
        return EliminationOutcome(
            factors=factors,
            num_levels=level,
            level_sizes=self.level_sizes,
            flops=self.flops_total,
            words_copied=self.words_copied,
            u_rows_communicated=self.u_rows_comm,
            recoveries=self.recoveries,
        )

    def _gather_factor(self, rows: list[tuple[np.ndarray, np.ndarray]]) -> CSRMatrix:
        """One factor as CSR in the elimination ordering, from its rows
        in original indices (``rows[i]`` is row ``i``)."""
        flat = flatten_rows(rows)
        return CSRMatrix.from_coo(
            np.repeat(self.pos, np.diff(flat.ptr)),
            self.pos[flat.cols],
            flat.vals,
            shape=(self.n, self.n),
        )

    def _assemble(
        self,
        interior_ranges: list[tuple[int, int]],
        interface_levels: list[np.ndarray],
    ) -> ILUFactors:
        """Map original-index rows to the elimination ordering and build CSR."""
        n = self.n
        perm = np.asarray(self.order, dtype=np.int64)
        if perm.size != n:
            raise AssertionError(
                f"elimination covered {perm.size} of {n} rows"
            )
        L = self._gather_factor([self.l_rows.get(i, _EMPTY_ROW) for i in range(n)])
        U = self._gather_factor([self.u_rows[i] for i in range(n)])
        owner = self.decomp.part[perm]
        levels = LevelStructure(
            interior_ranges=interior_ranges,
            interface_levels=interface_levels,
            owner=owner,
        )
        levels.validate(n)
        return ILUFactors(
            L=L,
            U=U,
            perm=perm,
            levels=levels,
            stats={
                "m": self.m,
                "t": self.t,
                "reduced_cap": self.reduced_cap,
                "flops": self.flops_total,
                "words_copied": self.words_copied,
                "num_levels": len(interface_levels),
            },
        )
