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
organised as a **parallel region**: pure thunks (``_compute_*``)
dispatched through :func:`repro.machine.run_region`, each returning one
:class:`~repro.ilu.rowstore.RowBlock` (row ids, flat L/U/reduced rows,
per-row operation counts, the pivots each row read) that the
coordinator merges in ``_merge_blocks``: one append per store per
block, then the charges and tracer declarations replayed row by row in
the deterministic global order the historical inline loops used —
rank-major for phase 1 and the §7 domains, ascending row order (which
interleaves ranks) for every phase-2 region.  Phase 1 and the §7
domains run one thunk body per rank.  A phase-2 region is separable by
row, so it runs one body per *worker* of the transport
(:attr:`~repro.machine.Simulator.workers`): the simulator's one
coordinator thread makes one kernel call over every rank's rows, a
worker transport one per rank; the merge charges each row to the rank
that owns it either way.  Thunks read shared engine
state but never mutate it.  The merge order plus per-row charge replay
is what makes factors, modeled times and fault-journal signatures
bit-identical across all transports (the simulator runs regions
sequentially in rank order, so it also reproduces the pre-transport
behaviour bit for bit).  The engine has no recovery of its own: a
region that fails under a fault plan is retried by the transport's
``pardo`` before the engine sees a result (DESIGN.md §14.2), and a
message lost past every retransmit escalates as
:class:`~repro.faults.MessageLost`.

Wherever pivots can depend on each other — phase 1, and the §7
partition engine's domains — a thunk body eliminates its rows one at a
time with the scalar row kernel (:mod:`repro.ilu.row`: Algorithm 4.1 on
a ``dict`` working row over list-cached pivot rows, plus the
dropping-rule tails) in one loop, ``_eliminate_rows``; its callers
differ only in which columns are pivots, where pivot rows come from
(rows the thunk just finished, or the U store through a
:class:`~repro.ilu.row.PivotRows` cache) and which tail finishes the
row.  The phase-2 update is the one place
that is batched: the rows of ``I_l`` are independent, so a worker's
thunk eliminates the whole level from all the reduced rows its ranks
own in one array pass (:func:`repro.ilu.level.level_update`), bit for
bit what the row kernel would produce row by row — DESIGN.md §13.2.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from types import MappingProxyType
from typing import Callable

import numpy as np

from ..decomp import DomainDecomposition
from ..graph import two_step_luby_mis_edges
from ..machine import Simulator, run_region
from ..resilience import PivotPolicy
from .factors import ILUFactors, LevelStructure
from .level import LevelPivots, level_pivots, level_update
from .row import PivotRow, PivotRows, eliminate_row, l_row, reduced_row, u_row
from .rowstore import RowBlock, RowsBuilder, RowStore, gather_rows, permuted_csr, ptr_of

__all__ = ["EliminationEngine", "EliminationOutcome"]

# modelled cost (in "operations") of copying one word while rebuilding a
# reduced row — the data-movement overhead the paper attributes to ILUT's
# dense reduced matrices.  Charged through the same flop-time channel.
COPY_OPS_PER_WORD = 0.5
# modelled cost of scanning one adjacency entry during a Luby MIS round
MIS_OPS_PER_EDGE = 1.0


def _no_rows() -> None:
    """The thunk of a rank whose rows run in its worker's lead thunk."""


@dataclass
class EliminationOutcome:
    """Everything the engine produces besides the factors themselves."""

    factors: ILUFactors
    num_levels: int
    level_sizes: list[int] = field(default_factory=list)
    flops: float = 0.0
    words_copied: float = 0.0
    u_rows_communicated: int = 0


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
        Luby augmentation rounds per independent set (paper uses 5);
        at least 1.
    seed:
        Seed for the per-level MIS randomness.
    pivot_policy:
        Small/zero-pivot remediation
        (:class:`~repro.resilience.PivotPolicy`); ``None`` is
        ``PivotPolicy("guard")``, which replaces an exactly-zero pivot
        with the row's relative tolerance.
    max_levels:
        Cap on the phase-2 levels; a run that needs more raises
        ``RuntimeError``.  ``None`` → ``n + 1``, more levels than a run
        that factors a row per level can take.
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
        pivot_policy: PivotPolicy | None = None,
        max_levels: int | None = None,
        level_hook: Callable[[int, np.ndarray, MappingProxyType], None] | None = None,
    ) -> None:
        if m < 0:
            raise ValueError(f"m must be non-negative, got {m}")
        if t < 0:
            raise ValueError(f"t must be non-negative, got {t}")
        if reduced_cap is not None and reduced_cap < 1:
            raise ValueError(f"reduced_cap must be >= 1, got {reduced_cap}")
        if mis_rounds < 1:
            raise ValueError(f"mis_rounds must be >= 1, got {mis_rounds}")
        self.decomp = decomp
        self.A = decomp.A
        self.n = self.A.shape[0]
        self.m = int(m)
        self.t = float(t)
        self.reduced_cap = reduced_cap
        self.sim = sim
        self.mis_rounds = int(mis_rounds)
        self.seed = int(seed)
        self.pivot_policy = pivot_policy if pivot_policy is not None else PivotPolicy()
        self.max_levels = max_levels if max_levels is not None else self.n + 1
        self.level_hook = level_hook
        self._tr = sim.tracer if sim is not None else None
        # liveness signal for the worker supervisor (DESIGN.md §14), per
        # row in the scalar kernel and per call in the level kernel: a
        # no-op on the simulator/coordinator, a timestamp or pipe frame
        # inside real-transport workers
        self._hb = sim.heartbeat if sim is not None else (lambda: None)
        # ranks that share one executor; without a transport the calling
        # thread runs every thunk
        self._workers = sim.workers if sim is not None else (tuple(range(decomp.nranks)),)

        self.norms = self.A.row_norms(ord=2)
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

    def _merge_blocks(self, blocks: Sequence[RowBlock | None], *, by_row: bool = False) -> None:
        """Apply one region's result to the engine state (coordinator side).

        ``blocks[rank]`` is what ``rank``'s thunk returned.  Each block
        is stored with one append per row store (factored rows leave the
        reduced matrix and take the next elimination positions); then
        every row's declarations and charges are replayed, one row at a
        time — rank-major in block order, each row on its block's rank,
        or with ``by_row`` in ascending row order across the ranks, each
        row on the rank that owns it (a worker's block holds the rows
        of all of its ranks).  That order is the engine's
        numerics: it fixes elimination positions, every rank clock's
        float sum and the tracer's access sequence.
        """
        tr = self._tr
        part = self.decomp.part
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
                part[block.rows].tolist() if by_row else repeat(rank),
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
        # node -> position, -1 off the remaining nodes; a column outside
        # 0..n-1 is clipped to -1 or n, both the extra slot at index n
        local = np.full(self.n + 1, -1, dtype=np.int64)
        local[remaining] = np.arange(remaining.size, dtype=np.int64)
        dst = local[np.clip(cols, -1, self.n)]
        stray = dst < 0
        if stray.any():
            raise KeyError(int(cols[stray][0]))  # a column that is not a remaining node
        off_diag = src != dst
        return src[off_diag], dst[off_diag]

    def _mis_of_reduced(self, remaining: np.ndarray, level: int) -> np.ndarray:
        """Two-step Luby MIS on the *directed* structure of the reduced rows.

        The edges are the reduced matrix's structure over the remaining
        nodes, one per off-diagonal entry: ``v``'s out-edges are exactly
        the off-diagonal column set of ``v``'s reduced row — the
        one-directional visibility the two-step algorithm is designed
        for.  Charges per-round scan and boundary-exchange costs.
        Returns the set in ascending row order.
        """
        owner = self.decomp.part[remaining]
        if self._tr is not None:
            # each owner scans the structure of its own reduced rows
            for g, r in zip(remaining.tolist(), owner.tolist()):
                self._tr.read(r, "reduced-row", g)
        e_src, e_dst = self._reduced_structure(remaining)
        mis_local = two_step_luby_mis_edges(
            remaining.size,
            e_src,
            e_dst,
            seed=self.seed + 1000 * (level + 1),
            rounds=self.mis_rounds,
        )
        # cost model: all ``mis_rounds`` rounds are charged, whether or not
        # the Luby core stopped earlier, and each bills every edge of the
        # reduced structure, active or not, twice (one scan per step) to
        # its source's owner, plus a boundary key exchange and two barriers.
        if self.sim is not None:
            nranks = self.sim.nranks
            src_owner, dst_owner = owner[e_src], owner[e_dst]
            scans = (2.0 * MIS_OPS_PER_EDGE * np.bincount(src_owner, minlength=nranks)).tolist()
            # one word per adjacency entry whose two ends live on different
            # ranks, aggregated per ordered rank pair, pairs ascending
            counts = np.bincount(src_owner * nranks + dst_owner, minlength=nranks * nranks)
            counts[:: nranks + 1] = 0  # a rank's own entries are no message
            pairs = np.flatnonzero(counts)
            boundary_words = [
                (*divmod(pair, nranks), float(cnt))
                for pair, cnt in zip(pairs.tolist(), counts[pairs].tolist())
            ]
            for _ in range(self.mis_rounds):
                for r in range(nranks):
                    self.sim.compute(r, scans[r])
                self.sim.exchange(boundary_words, tag=("mis", level))
                self.sim.barrier()
                self.sim.barrier()  # the two-step insert/remove barrier pair
        return remaining[mis_local]

    def _owner_region(self, rows: np.ndarray, body: Callable[[np.ndarray], RowBlock]) -> None:
        """One region over ``rows`` (ascending): ``body`` once per worker
        of the transport, over the rows its ranks own, merged in
        ascending row order — the historical inline order, which
        interleaves ranks and fixes the global charge/trace sequence.

        ``body`` must be separable by row: a row's result may not depend
        on which rows share the call.  A worker's rows reach it
        rank-major, each rank's ascending, in the thunk of its lowest
        rank that holds rows; its other ranks with rows get a thunk that
        returns ``None``.  So ``pardo`` sees the active ranks one body
        per rank would give it — region faults fire, journal and retry
        alike — and the first error the body raises is the one the
        lowest failing rank's body would have raised.
        """
        nranks = self.decomp.nranks
        owner = self.decomp.part[rows]
        by_owner = rows[np.argsort(owner, kind="stable")]
        bounds = ptr_of(np.bincount(owner, minlength=nranks)).tolist()
        thunks: list[Callable[[], RowBlock | None] | None] = [None] * nranks
        for ranks in self._workers:
            held = [r for r in ranks if bounds[r + 1] > bounds[r]]
            if not held:
                continue
            mine = np.concatenate([by_owner[bounds[r] : bounds[r + 1]] for r in held])
            thunks[held[0]] = lambda mine=mine: body(mine)
            for r in held[1:]:
                thunks[r] = _no_rows
        self._merge_blocks(run_region(self.sim, thunks), by_row=True)

    def _compute_level_rows(self, rows: np.ndarray) -> RowBlock:
        """Pure thunk body: factor one worker's share of an independent set.

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
        self.u_rows_comm += int(needed.size)
        self.sim.exchange(
            [(*divmod(pair, nranks), w) for pair, w in zip(pairs.tolist(), words.tolist())],
            tag=tag,
        )

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
        reduced row: each worker's thunk is one batched pass over all
        the rows its ranks own, with the block :meth:`_update_remaining`
        would produce."""
        self._owner_region(self.remaining, lambda mine: self._compute_level_update(mine, pivots))

    def _compute_update_rows(self, rows: np.ndarray, pkey: np.ndarray) -> RowBlock:
        """Pure thunk body: apply Algorithm 4.1 to one worker's reduced
        rows.  Rows without a pivot column are not part of the block."""
        ptr, cols, _vals = self.reduced.gather(rows)
        row_of = np.repeat(np.arange(rows.size, dtype=np.int64), np.diff(ptr))
        touched = np.bincount(row_of[pkey[cols] >= 0], minlength=rows.size) > 0
        return self._eliminate_rows(rows[touched], "reduced-row", pkey)

    def _compute_level_update(self, rows: np.ndarray, pivots: LevelPivots) -> RowBlock:
        """Pure thunk body: the level kernel over one worker's reduced rows."""
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
        """Execute phases 1 and 2 and assemble the permuted factors."""
        view = MappingProxyType(self.reduced)
        interior_ranges = self._run_phase1()
        if self.level_hook is not None:
            self.level_hook(-1, np.empty(0, dtype=np.int64), view)

        interface_levels: list[np.ndarray] = []
        level = 0
        while self.remaining.size:
            if level >= self.max_levels:
                raise RuntimeError(
                    f"interface factorization did not terminate in {level} levels"
                )
            pos_start = self.nfactored
            factored = self._run_level(level)
            if self.level_hook is not None:
                self.level_hook(level, factored, view)
            interface_levels.append(np.arange(pos_start, self.nfactored, dtype=np.int64))
            self.level_sizes.append(int(factored.size))
            level += 1

        factors = self._assemble(interior_ranges, interface_levels)
        return EliminationOutcome(
            factors=factors,
            num_levels=level,
            level_sizes=self.level_sizes,
            flops=self.flops_total,
            words_copied=self.words_copied,
            u_rows_communicated=self.u_rows_comm,
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
        every = np.arange(n, dtype=np.int64)
        L = permuted_csr(self.l_rows.gather(every), self.pos)
        U = permuted_csr(self.u_rows.gather(every), self.pos)
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
