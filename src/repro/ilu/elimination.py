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
The engine's state is one :class:`~repro.ilu.rowstore.RowStore` each for
U, L and the reduced matrix — rows in flat append-only buffers — plus the
sorted array ``remaining`` of unfactored interface rows.  Each phase is
organised as a **parallel region**: per-rank pure thunks (``_compute_*``)
dispatched through :func:`repro.machine.run_region`, each returning one
:class:`~repro.ilu.rowstore.RowBlock` (row ids, flat L/U/reduced rows,
per-row operation counts, the pivots each row read) that the
coordinator merges in ``_merge_blocks``: one append per store per
block, then the charges and tracer declarations replayed row by row in
the deterministic global order the historical inline loops used —
rank-major for phase 1 and the §7 domains, ascending row order (which
interleaves ranks) for every phase-2 region.  Thunks read shared engine
state but never mutate it.  The merge order plus per-row charge replay
is what makes factors, modeled times and fault-journal signatures
bit-identical across all transports (the simulator runs regions
sequentially in rank order, so it also reproduces the pre-transport
behaviour bit for bit).

Wherever pivots can depend on each other — phase 1, and the §7
partition engine's domains — a thunk body eliminates its rows one at a
time with the scalar row kernel (:mod:`repro.ilu.row`: Algorithm 4.1 on
a ``dict`` working row over list-cached pivot rows, plus the
dropping-rule tails) in one loop, ``_eliminate_rows``; its callers
differ only in which columns are pivots, where pivot rows come from
(rows the thunk just finished, or the U store through a
:class:`~repro.ilu.row.PivotRows` cache) and which tail finishes the
row.  The phase-2 update is the one place
that is batched: the rows of ``I_l`` are independent, so a rank's thunk
eliminates the whole level from all of its reduced rows in one array
pass (:func:`repro.ilu.level.level_update`), bit for bit what the row
kernel would produce row by row — DESIGN.md §13.2.
"""

from __future__ import annotations

from collections.abc import Sequence
from copy import copy
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from types import MappingProxyType
from typing import Callable

import numpy as np

from ..decomp import DomainDecomposition
from ..faults import MessageLost, RankFailure
from ..graph import Graph, two_step_luby_mis
from ..machine import Simulator, run_region
from ..resilience import PivotPolicy
from ..sparse import CSRMatrix
from .factors import ILUFactors, LevelStructure
from .level import LevelPivots, level_pivots, level_update
from .row import PivotRow, PivotRows, eliminate_row, l_row, reduced_row, u_row
from .rowstore import RowBlock, RowsBuilder, RowStore, gather_rows, ptr_of

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


# engine attributes a checkpoint copies (beside the row stores)
_CHECKPOINTED = (
    "pos", "nfactored", "remaining", "level_sizes", "flops_total", "words_copied", "u_rows_comm"
)


@dataclass
class _EngineCheckpoint:
    """Per-level snapshot of the elimination state (plus the simulator's).

    The row stores are append-only, so each is snapshotted as its index
    arrays plus its buffer length (``RowStore.checkpoint``).
    """

    stores: tuple
    state: dict[str, object]
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
        phase-2 level, with a read-only ``row -> (cols, vals)`` mapping
        view of the live reduced matrix — used by tests to assert
        per-level invariants such as the 3rd dropping rule's ``k*m`` cap.

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
        level_hook: Callable[[int, np.ndarray, MappingProxyType], None] | None = None,
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
        # A's rows in the (start, length, cols, vals) form gather_rows reads
        indptr = self.A.indptr
        self._a_rows = (indptr[:-1], np.diff(indptr), self.A.indices, self.A.data)
        self.pos = np.full(self.n, -1, dtype=np.int64)  # elimination position
        self.nfactored = 0
        # rows in original indices: U rows diagonal first, accumulated L
        # rows (factored columns), reduced rows over unfactored columns
        self.u_rows = RowStore(self.n)
        self.l_rows = RowStore(self.n)
        self.reduced = RowStore(self.n)
        # the rows of ``reduced``, ascending
        self.remaining = np.empty(0, dtype=np.int64)
        self.level_sizes: list[int] = []
        self.flops_total = 0.0
        self.words_copied = 0.0
        self.u_rows_comm = 0

    # ------------------------------------------------------------------
    # transport helpers (no-ops without a transport)
    # ------------------------------------------------------------------

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

    def _merge_blocks(self, blocks: Sequence[RowBlock | None], *, by_row: bool = False) -> None:
        """Apply one region's result to the engine state (coordinator side).

        ``blocks[rank]`` is what ``rank``'s thunk returned.  Each block
        is stored with one append per row store (factored rows leave the
        reduced matrix and take the next elimination positions); then
        every row's declarations and charges are replayed, one row at a
        time — rank-major in block order, or with ``by_row`` in ascending
        row order across the ranks.  That order is the engine's
        numerics: it fixes elimination positions, every rank clock's
        float sum and the tracer's access sequence.
        """
        tr = self._tr
        todo: list[tuple] = []  # per row: (row, rank, ops, copy words, declarations)
        factored = False
        for rank, block in enumerate(blocks):
            if block is None:
                continue
            if block.l_rows is not None:
                self.l_rows.put(block.rows, block.l_rows)
            if block.u_rows is not None:
                factored = True
                self.u_rows.put(block.rows, block.u_rows)
                self.reduced.discard(block.rows)
            else:
                self.reduced.put(block.rows, block.reduced)
            words = block.copy_words()
            todo += zip(
                block.rows.tolist(),
                repeat(rank),
                block.ops.tolist(),
                repeat(None) if words is None else words.tolist(),
                repeat(()) if tr is None else block.decls(),
            )
        if by_row:
            todo.sort(key=itemgetter(0))
        if factored:
            done = np.array([item[0] for item in todo], dtype=np.int64)
            self.pos[done] = self.nfactored + np.arange(done.size, dtype=np.int64)
            self.nfactored += done.size
            self.remaining = self.remaining[self.pos[self.remaining] < 0]
        for _row, rank, ops, words, decls in todo:
            for kind, space, idx in decls:
                (tr.read if kind == "r" else tr.write)(rank, space, idx)
            self._charge_ops(rank, ops)
            if words is not None:
                self._charge_copy(rank, words)

    # ------------------------------------------------------------------
    # the row kernel (repro.ilu.row) bound to this engine's parameters
    # ------------------------------------------------------------------

    def _eliminate_rows(self, rows: np.ndarray, source: str, pkey: np.ndarray | None) -> RowBlock:
        """Pure thunk body: Algorithm 4.1 on ``rows``, one after the
        other (:func:`repro.ilu.row.eliminate_row`), each row's L part
        merged with its old one, thresholded and cut to the ``m`` largest.

        ``source`` says where the rows are read from: ``"A-row"`` or
        ``"reduced-row"``.  With a ``pkey`` array (:meth:`_pivot_keys`)
        the pivots are rows factored earlier, read from the U store, and
        every row is finished by the 3rd rule and stays in the reduced
        matrix.  With ``None`` the rows are *factored*: each is finished
        by the 2nd rule's U side and becomes a pivot for the rows after
        it, keyed by its place in ``rows`` (order-isomorphic to the
        positions the merge will assign) and read from a thunk-local
        cache.  A *reduced* row that is factored is also charged the
        length of what the 2nd rule scans, and declares an L write only
        when it has an L part — the §7 domains, whose rows mostly have
        none.  Reads engine state and writes none.
        """
        factor = pkey is None
        pkey = [-1] * self.n if factor else pkey.tolist()
        pivot_rows: dict[int, PivotRow] = {} if factor else PivotRows(self.u_rows)
        from_reduced = source == "reduced-row"
        src = self.reduced.gather(rows) if from_reduced else gather_rows(*self._a_rows, rows)
        sp, sc, sv = (a.tolist() for a in src)
        lp, lc, lv = (a.tolist() for a in self.l_rows.gather(rows))
        taus = (self.t * self.norms[rows]).tolist()
        norms = self.norms[rows].tolist()
        l_out, out = RowsBuilder(), RowsBuilder()
        ops_out: list[float] = []
        read_counts: list[int] = []
        read_cols: list[int] = []
        for j, i in enumerate(rows.tolist()):
            self._hb()
            tau = taus[j]
            ops, reads, multipliers, rest = eliminate_row(
                sc[sp[j] : sp[j + 1]], sv[sp[j] : sp[j + 1]], tau, pkey, pivot_rows
            )
            old = list(zip(lc[lp[j] : lp[j + 1]], lv[lp[j] : lp[j + 1]]))
            l_out.add_entries(l_row(old, multipliers, tau, self.m))
            if factor:
                tail_cols, tail_vals, pivot = pivot_rows[i] = u_row(
                    i, rest, tau, self.m, self.pivot_policy, norms[j]
                )
                pkey[i] = j
                out.add([i, *tail_cols], [pivot, *tail_vals])
                if from_reduced:
                    ops += float(len(rest))
            else:
                out.add_entries(reduced_row(i, rest, tau, self.reduced_cap))
            ops_out.append(ops)
            read_counts.append(len(reads))
            read_cols += reads
        return RowBlock(
            rows,
            source,
            l_out.flat(),
            out.flat() if factor else None,
            None if factor else out.flat(),
            np.array(ops_out, dtype=np.float64 if factor and from_reduced else np.int64),
            ptr_of(np.array(read_counts, dtype=np.int64)),
            np.array(read_cols, dtype=np.int64),
            skip_empty_l=factor and from_reduced,
        )

    def _pivot_keys(self, pivots: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """The pivot-key array of a pivot set: ``keys`` at ``pivots``,
        ``-1`` elsewhere."""
        pkey = np.full(self.n, -1, dtype=np.int64)
        pkey[pivots] = keys
        return pkey

    # ------------------------------------------------------------------
    # phase 1: interior factorization + interface reduction
    # ------------------------------------------------------------------

    def _compute_interior_block(self, rank: int) -> RowBlock:
        """Pure per-rank thunk body: ILUT over ``rank``'s interior rows
        in ascending original index.

        Interior rows reference only local columns, so this is exactly
        the sequential ILUT restricted to the block; interface columns
        land in the U part (they are eliminated later).  A rank's pivots
        are its own earlier interior rows, kept thunk-local in the form
        the row kernel reads.
        """
        return self._eliminate_rows(self.decomp.interior_rows(rank), "A-row", None)

    def _compute_interface_reduction(self, rank: int) -> RowBlock:
        """Pure per-rank thunk body: eliminate the rank's factored
        interior unknowns from its interface rows.

        Interface rows reference only *local* interior nodes (a remote
        interior node would have a cross-domain neighbour, contradiction),
        so no communication is needed — the paper's phase-1 property.
        """
        interior = self.decomp.interior_rows(rank)
        return self._eliminate_rows(
            self.decomp.interface_rows(rank), "A-row", self._pivot_keys(interior, interior)
        )

    # ------------------------------------------------------------------
    # phase 2: iterative independent-set factorization of A_I
    # ------------------------------------------------------------------

    def _reduced_structure(self, remaining: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The directed structure of the reduced matrix over the remaining
        nodes: one ``(src, dst)`` pair per stored off-diagonal entry, as
        positions in the sorted ``remaining``, in row-major order."""
        ptr, cols, _vals = self.reduced.gather(remaining)
        src = np.repeat(np.arange(remaining.size, dtype=np.int64), np.diff(ptr))
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
        Returns the set in ascending row order.
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

    def _owner_region(self, rows: np.ndarray, body: Callable[[np.ndarray], RowBlock]) -> None:
        """One region over ``rows`` (ascending) grouped by owner, merged
        in ascending row order — the historical inline order, which
        interleaves ranks and fixes the global charge/trace sequence."""
        owner = self.decomp.part[rows]
        thunks = [
            (lambda mine=mine: body(mine)) if mine.size else None
            for mine in (rows[owner == rank] for rank in range(self.decomp.nranks))
        ]
        self._merge_blocks(run_region(self.sim, thunks), by_row=True)

    def _compute_level_rows(self, rows: np.ndarray) -> RowBlock:
        """Pure thunk body: factor one rank's share of an independent set.

        Every off-diagonal entry of an independent row's reduced row sits
        at an unfactored column, i.e. in the U part — factoring is just
        the 2nd rule's U side: threshold, then keep the ``m`` largest.
        """
        flat = self.reduced.gather(rows)
        ptr, cols, vals = (a.tolist() for a in flat)
        taus = (self.t * self.norms[rows]).tolist()
        norms = self.norms[rows].tolist()
        out = RowsBuilder()
        for j, i in enumerate(rows.tolist()):
            self._hb()
            entries = list(zip(cols[ptr[j] : ptr[j + 1]], vals[ptr[j] : ptr[j + 1]]))
            tail_cols, tail_vals, pivot = u_row(
                i, entries, taus[j], self.m, self.pivot_policy, norms[j]
            )
            out.add([i, *tail_cols], [pivot, *tail_vals])
        return RowBlock(
            rows,
            "reduced-row",
            None,
            out.flat(),
            None,
            np.diff(flat.ptr).astype(np.float64),
            np.zeros(rows.size + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )

    def _exchange_level_rows(self, pkey: np.ndarray, tag: object) -> None:
        """Charge the u-row exchange for this level's pivots.

        Every remaining reduced row knows (before computing anything —
        independence guarantees no new pivots appear) which freshly
        factored rows it eliminates against; rows owned elsewhere must
        be received.  One aggregated message per (src, dst) rank pair,
        pairs ascending.
        """
        if self.sim is None:
            return
        part, nranks = self.decomp.part, self.decomp.nranks
        ptr, cols, _vals = self.reduced.gather(self.remaining)
        hit = pkey[cols] >= 0
        k, dst_owner = cols[hit], np.repeat(part[self.remaining], np.diff(ptr))[hit]
        cross = part[k] != dst_owner
        # each needed row once per (src, dst) pair
        needed = np.unique((part[k[cross]] * nranks + dst_owner[cross]) * self.n + k[cross])
        pairs, which = np.unique(needed // self.n, return_inverse=True)
        # indices + values of every row the pair ships
        words = np.bincount(which, weights=2.0 * self.u_rows.length[needed % self.n])
        pair_words = [
            (divmod(pair, nranks), w) for pair, w in zip(pairs.tolist(), words.tolist())
        ]
        for (src, dst), w in pair_words:
            self.sim.send(src, dst, None, w, tag=tag)
        self.u_rows_comm += int(needed.size)
        for (src, dst), w in pair_words:
            self._recv_retry(src, dst, tag, w)

    def _update_remaining(self, pkey: np.ndarray) -> None:
        """Eliminate the ``pkey`` pivots from every remaining reduced
        row, one row at a time — for pivot sets that may depend on each
        other (pivots reached through fill are followed).

        Algorithm 4.1 over the pivots present in each row, then merge
        the new multipliers into the L row and re-apply the 3rd
        dropping rule.
        """
        self._owner_region(self.remaining, lambda mine: self._compute_update_rows(mine, pkey))

    def _update_level(self, pivots: LevelPivots) -> None:
        """Eliminate one *independent* level from every remaining
        reduced row: each rank's thunk is one batched pass over all of
        its rows, with the block :meth:`_update_remaining` would
        produce."""
        self._owner_region(self.remaining, lambda mine: self._compute_level_update(mine, pivots))

    def _compute_update_rows(self, rows: np.ndarray, pkey: np.ndarray) -> RowBlock:
        """Pure thunk body: apply Algorithm 4.1 to one rank's reduced
        rows.  Rows without a pivot column are not part of the block."""
        ptr, cols, _vals = self.reduced.gather(rows)
        row_of = np.repeat(np.arange(rows.size, dtype=np.int64), np.diff(ptr))
        touched = np.bincount(row_of[pkey[cols] >= 0], minlength=rows.size) > 0
        return self._eliminate_rows(rows[touched], "reduced-row", pkey)

    def _compute_level_update(self, rows: np.ndarray, pivots: LevelPivots) -> RowBlock:
        """Pure thunk body: the level kernel over one rank's reduced rows."""
        self._hb()
        return level_update(
            pivots,
            rows,
            self.reduced.gather(rows),
            self.l_rows.gather(rows),
            self.t * self.norms[rows],
            self.m,
            self.reduced_cap,
        )

    # ------------------------------------------------------------------
    # checkpoint / recovery
    # ------------------------------------------------------------------

    def _stores(self) -> tuple[RowStore, RowStore, RowStore]:
        return self.u_rows, self.l_rows, self.reduced

    def _take_checkpoint(
        self, interface_levels: list[np.ndarray], level: int
    ) -> _EngineCheckpoint:
        return _EngineCheckpoint(
            stores=tuple(store.checkpoint() for store in self._stores()),
            state={name: copy(getattr(self, name)) for name in _CHECKPOINTED},
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
        for store, snap in zip(self._stores(), ckpt.stores):
            store.restore(snap)
        for name, value in ckpt.state.items():
            setattr(self, name, copy(value))
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
        """Both phase-1 regions, merged rank-major; returns the
        elimination-position range each rank's interior rows took."""
        ranks = range(self.decomp.nranks)
        interior = run_region(
            self.sim, [(lambda r=r: self._compute_interior_block(r)) for r in ranks]
        )
        bounds = (self.nfactored + ptr_of(np.array([b.rows.size for b in interior]))).tolist()
        self._merge_blocks(interior)
        interface = run_region(
            self.sim, [(lambda r=r: self._compute_interface_reduction(r)) for r in ranks]
        )
        self._merge_blocks(interface)
        self.remaining = np.sort(np.concatenate([b.rows for b in interface]))
        self._barrier()  # end of phase 1
        return list(zip(bounds[:-1], bounds[1:]))

    def _run_level(self, level: int) -> np.ndarray:
        """One phase-2 level: pick an independent set of the reduced
        matrix, factor it, ship its rows, eliminate it from the rest.
        Returns the rows factored."""
        iset = self._mis_of_reduced(self.remaining, level)
        if iset.size == 0:
            raise RuntimeError("empty independent set — cannot make progress")
        self._owner_region(iset, self._compute_level_rows)
        pivots = level_pivots(self.n, iset, self.u_rows)
        self._exchange_level_rows(pivots.ordinal, ("urow", level))
        self._update_level(pivots)
        self._barrier()
        return iset

    def run(self) -> EliminationOutcome:
        """Execute phases 1 and 2 and assemble the permuted factors.

        With ``checkpoint=True`` the loop snapshots after phase 1 and
        after every completed level; an injected
        :class:`~repro.faults.RankFailure` (or a message loss that
        survived every retransmit) rolls back to the last completed
        level and recomputes — deterministically, so the final factors
        are bit-identical to an undisturbed run.
        """
        view = MappingProxyType(self.reduced)
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
            self.level_hook(-1, np.empty(0, dtype=np.int64), view)

        interface_levels: list[np.ndarray] = []
        level = 0
        if self.checkpoint:
            ckpt = self._take_checkpoint(interface_levels, level)
        while self.remaining.size:
            if level >= self.max_levels:
                raise RuntimeError(
                    f"interface factorization did not terminate in {level} levels"
                )
            pos_start = self.nfactored
            try:
                factored = self._run_level(level)
            except (RankFailure, MessageLost) as err:
                if ckpt is None or not self._can_recover():
                    raise
                interface_levels, level = self._restore_checkpoint(ckpt, err)
                continue
            if self.level_hook is not None:
                self.level_hook(level, factored, view)
            interface_levels.append(np.arange(pos_start, self.nfactored, dtype=np.int64))
            self.level_sizes.append(int(factored.size))
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

    def _gather_factor(self, store: RowStore) -> CSRMatrix:
        """One factor as CSR in the elimination ordering, from its rows
        in original indices."""
        ptr, cols, vals = store.gather(np.arange(self.n, dtype=np.int64))
        return CSRMatrix.from_coo(
            np.repeat(self.pos, np.diff(ptr)), self.pos[cols], vals, shape=(self.n, self.n)
        )

    def _assemble(
        self,
        interior_ranges: list[tuple[int, int]],
        interface_levels: list[np.ndarray],
    ) -> ILUFactors:
        """Map original-index rows to the elimination ordering and build CSR."""
        n = self.n
        if self.nfactored != n:
            raise AssertionError(f"elimination covered {self.nfactored} of {n} rows")
        perm = np.empty(n, dtype=np.int64)
        perm[self.pos] = np.arange(n, dtype=np.int64)
        L = self._gather_factor(self.l_rows)
        U = self._gather_factor(self.u_rows)
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
