"""The scalar row kernel (``repro.ilu.row``) on hand-built rows.

Two oracles.  Hand-computed expectations pin each place where a
rewrite of Algorithm 4.1 can silently move a bit, an operation count or
a tracer declaration.  ``reference_*`` below is the array formulation
the kernel replaced — a full-length accumulator, one numpy call per
step — kept here as the independent implementation the kernel must
equal, bit for bit, on random rows.
"""

import heapq

import numpy as np
import pytest

from repro.decomp import decompose
from repro.ilu.elimination import EliminationEngine
from repro.ilu.interface_partition import InterfacePartitionEngine
from repro.ilu.row import (
    PivotRows,
    eliminate_in_pattern,
    eliminate_row,
    keep_largest_entries,
    l_row,
    reduced_row,
    u_row,
)
from repro.ilu.rowstore import RowsBuilder
from repro.machine import CRAY_T3D, Simulator
from repro.matrices import poisson2d
from repro.resilience import PivotPolicy, ZeroPivotError
from repro.sparse import CSRMatrix

from ._accumulator import SparseRowAccumulator, keep_largest, merge_rows
from ._rows import records_of, store_of

N = 12
TINY = 5e-324  # smallest subnormal: TINY / 4 underflows to zero
GUARD = PivotPolicy("guard")


def arrays(cols, vals):
    return np.asarray(cols, dtype=np.int64), np.asarray(vals, dtype=np.float64)


def pkey_of(order, n=N):
    """Pivot keys: ``order[j]`` is the ``j``-th pivot to be eliminated."""
    pkey = [-1] * n
    for key, col in enumerate(order):
        pkey[col] = key
    return pkey


def pivots_of(u_rows):
    """A ``PivotRows`` cache over hand-written U rows (diagonal first)."""
    return PivotRows({k: arrays(*r) for k, r in u_rows.items()})


def row_arrays(entries):
    """``(col, value)`` pairs as the arrays a thunk's block carries."""
    rows = RowsBuilder()
    rows.add_entries(entries)
    return rows.flat()[1:]


def entries_of(row):
    return list(zip(row[0].tolist(), row[1].tolist()))


def u_row_arrays(i, pivot_row):
    """A stored U row: diagonal first, tail sorted by column."""
    tail_cols, tail_vals, pivot = pivot_row
    return arrays([i, *tail_cols], [pivot, *tail_vals])


def bits(entries):
    cols, vals = row_arrays(entries)
    return cols.tobytes(), vals.tobytes()


# ----------------------------------------------------------------------
# the array formulation, as the reference
# ----------------------------------------------------------------------


def reference_eliminate(cols, vals, tau, pkey, u_rows, l_old, m):
    """Algorithm 4.1 on a full-length accumulator; returns ``(ops,
    reads, l_row, rest)`` with ``l_row``/``rest`` as array pairs."""
    pkey = np.asarray(pkey, dtype=np.int64)
    n = pkey.size
    w = SparseRowAccumulator(n)
    w.load(cols, vals)
    hits = cols[pkey[cols] >= 0]
    heap = (pkey[hits] * n + hits).tolist()
    heapq.heapify(heap)
    queued = set(hits.tolist())
    ops, reads, l_cols, l_vals = 0, [], [], []
    while heap:
        k = heapq.heappop(heap) % n
        wk = w.get(k)
        w.drop(k)
        if wk == 0.0:
            continue
        reads.append(k)
        ucols, uvals = u_rows[k]
        wk = wk / uvals[0]
        ops += 1
        if abs(wk) < tau:
            continue
        l_cols.append(k)
        l_vals.append(wk)
        if ucols.size > 1:
            tail = ucols[1:]
            w.axpy(-wk, tail, uvals[1:])
            ops += 2 * int(tail.size)
            for c in tail[pkey[tail] >= 0].tolist():
                if c not in queued:
                    queued.add(c)
                    heapq.heappush(heap, int(pkey[c]) * n + c)
    rest = w.extract()
    lc_new, lv_new = arrays(l_cols, l_vals)
    by_col = np.argsort(lc_new, kind="stable")
    lc, lv = merge_rows(*l_old, lc_new[by_col], lv_new[by_col])
    big = np.abs(lv) >= tau
    return ops, reads, keep_largest(lc[big], lv[big], m), rest


def reference_eliminate_in_pattern(cols, vals, pattern, pkey, u_rows):
    """ILU(0)/ILU(k)'s accumulator loop on one row: pivots in key order,
    updates kept to ``pattern``; returns ``(ops, row)`` as arrays."""
    pkey = np.asarray(pkey, dtype=np.int64)
    w = SparseRowAccumulator(pkey.size)
    w.load(cols, vals)
    allowed = np.zeros(pkey.size, dtype=bool)
    allowed[pattern] = True
    pivots = pattern[pkey[pattern] >= 0]
    ops = 0
    for k in pivots[np.argsort(pkey[pivots])].tolist():
        wk = w.get(k)
        if wk == 0.0:
            continue
        ucols, uvals = u_rows[k]
        wk = wk / uvals[0]
        ops += 1
        w.set(k, wk)
        keep = allowed[ucols[1:]]
        if np.any(keep):
            w.axpy(-wk, ucols[1:][keep], uvals[1:][keep])
            ops += 2 * int(keep.sum())
    return ops, w.extract()


def reference_u_row(i, cols, vals, tau, m, policy, norm):
    on = cols == i
    diag = float(vals[on][0]) if np.any(on) else 0.0
    big = (np.abs(vals) >= tau) & ~on
    uc, uv = keep_largest(cols[big], vals[big], m)
    diag = policy.resolve(i, diag, tau, norm)
    return np.concatenate(([i], uc)).astype(np.int64), np.concatenate(([diag], uv))


def reference_reduced_row(i, cols, vals, tau, cap):
    on = cols == i
    diag = float(vals[on][0]) if np.any(on) else 0.0
    keep = (np.abs(vals) >= tau) & ~on
    rc, rv = cols[keep], vals[keep]
    if cap is not None:
        rc, rv = keep_largest(rc, rv, max(0, cap - 1))
    ins = int(np.searchsorted(rc, i))
    return (
        np.concatenate((rc[:ins], (i,), rc[ins:])),
        np.concatenate((rv[:ins], (diag,), rv[ins:])),
    )


# ----------------------------------------------------------------------
# Algorithm 4.1
# ----------------------------------------------------------------------


class TestEliminateRow:
    def test_plain_elimination_with_fill(self):
        ops, reads, mult, rest = eliminate_row(
            [1, 2, 5, 7],
            [2.0, -3.0, 4.0, 1.0],
            0.1,
            pkey_of([1, 2]),
            pivots_of({1: ([1, 7, 8], [4.0, 1.0, 2.0]), 2: ([2, 5, 9], [2.0, 1.0, -1.0])}),
        )
        assert (ops, type(ops)) == (2 + 2 * 2 + 2 * 2, int)
        assert reads == [1, 2]
        assert mult == [(1, 0.5), (2, -1.5)]
        assert rest == [(5, 5.5), (7, 0.5), (8, -1.0), (9, -1.5)]

    def test_pivot_reached_through_fill_is_followed_once(self):
        # 1 fills 2 and 3 (both pivots); 2 then updates 3, which is
        # already pending and must not be queued a second time
        ops, reads, mult, rest = eliminate_row(
            [1, 5],
            [2.0, 1.0],
            0.0,
            pkey_of([1, 2, 3]),
            pivots_of(
                {
                    1: ([1, 2, 3], [1.0, 1.0, 1.0]),
                    2: ([2, 3], [1.0, 0.5]),
                    3: ([3, 7], [1.0, 1.0]),
                }
            ),
        )
        assert reads == [1, 2, 3]
        assert mult == [(1, 2.0), (2, -2.0), (3, -1.0)]
        assert rest == [(5, 1.0), (7, 1.0)]
        assert ops == 3 + 2 * 2 + 2 * 1 + 2 * 1

    def test_contributions_arrive_in_ascending_pivot_order(self):
        # (1e16 + 1) - 1e16 == 0 but (1e16 - 1e16) + 1 == 1
        def fill_at_9(third, fourth):
            u_rows = {1: ([1, 9], [1.0, 1e16]), 2: ([2, 9], [1.0, third]), 3: ([3, 9], [1.0, fourth])}
            rest = eliminate_row(
                [1, 2, 3, 5], [-1.0, -1.0, -1.0, 1.0], 0.0, pkey_of([1, 2, 3]), pivots_of(u_rows)
            )[3]
            return dict(rest).get(9)

        assert fill_at_9(1.0, -1e16) is None  # cancelled to 0.0: dropped
        assert fill_at_9(-1e16, 1.0) == 1.0

    def test_multiplier_below_tau_costs_one_op_and_leaves_no_l_entry(self):
        ops, reads, mult, rest = eliminate_row(
            [1, 5], [0.2, 1.0], 0.1, pkey_of([1]), pivots_of({1: ([1, 7], [4.0, 1.0])})
        )
        assert (ops, reads, mult) == (1, [1], [])  # 0.05 < 0.1: read, not applied
        assert rest == [(5, 1.0)]  # no fill at 7, the entry at 1 is consumed

    def test_zero_entry_at_a_pivot_costs_nothing_and_reads_nothing(self):
        ops, reads, mult, rest = eliminate_row(
            [1, 2, 5],
            [0.0, 3.0, 1.0],
            0.1,
            pkey_of([1, 2]),
            pivots_of({1: ([1, 7], [4.0, 1.0]), 2: ([2], [2.0])}),
        )
        assert (ops, reads, mult) == (1, [2], [(2, 1.5)])
        assert rest == [(5, 1.0)]

    @pytest.mark.parametrize("entry, sign", [(-TINY, True), (TINY, False)])
    def test_underflowing_multiplier_is_kept_at_t_zero(self, entry, sign):
        # t = 0: |wk| < 0 is never true, so a multiplier that underflowed
        # to -0.0 / +0.0 is stored with its sign and its tail is applied
        ops, reads, mult, rest = eliminate_row(
            [1, 5], [entry, 1.0], 0.0, pkey_of([1]), pivots_of({1: ([1, 7], [4.0, 1.0])})
        )
        assert (ops, reads) == (1 + 2, [1])
        assert [k for k, _ in mult] == [1]
        assert mult[0][1] == 0.0 and np.signbit(mult[0][1]) == sign
        assert rest == [(5, 1.0)]  # the fill at 7 is 0.0 + (-wk) * 1.0 == 0.0

    def test_exact_cancellation_drops_the_entry(self):
        rest = eliminate_row(
            [1, 5, 7], [2.0, 1.0, 0.5], 0.0, pkey_of([1]), pivots_of({1: ([1, 7], [4.0, 1.0])})
        )[3]
        assert rest == [(5, 1.0)]  # 0.5 - 0.5 * 1.0

    def test_position_ordered_pivot_keys(self):
        # the §7 engine orders pivots by elimination position, not by
        # column: 8 is eliminated before 3 and its tail changes the
        # entry at 3 *before* 3 is consumed
        u_rows = {8: ([8, 3], [1.0, 1.0]), 3: ([3, 9], [1.0, 1.0])}
        ops, reads, mult, rest = eliminate_row(
            [3, 5, 8], [1.0, 1.0, 2.0], 0.0, pkey_of([8, 3]), pivots_of(u_rows)
        )
        assert reads == [8, 3]
        assert mult == [(8, 2.0), (3, -1.0)]  # elimination order, not column order
        assert rest == [(5, 1.0), (9, 1.0)]
        assert ops == 2 + 2 + 2

    def test_consumed_pivot_slot_is_zeroed_not_removed(self):
        # same rows, column order: 3 is consumed first, then 8's tail
        # lands on the spent slot — the value stays in the row and the
        # pivot is not queued again
        u_rows = {8: ([8, 3], [1.0, 1.0]), 3: ([3, 9], [1.0, 1.0])}
        ops, reads, mult, rest = eliminate_row(
            [3, 5, 8], [1.0, 1.0, 2.0], 0.0, pkey_of([3, 8]), pivots_of(u_rows)
        )
        assert reads == [3, 8]
        assert rest == [(3, -2.0), (5, 1.0), (9, -1.0)]

    def test_row_without_pivots_is_returned_as_loaded(self):
        ops, reads, mult, rest = eliminate_row([7, 5], [0.0, -0.0], 0.1, pkey_of([1]), {})
        assert (ops, reads, mult, rest) == (0, [], [], [])  # zeros of either sign vanish

    def test_pivot_rows_are_converted_once_and_cached(self):
        pivots = pivots_of({1: ([1, 7], [4.0, 1.0])})
        assert pivots[1] == ([7], [1.0], 4.0)
        assert pivots[1] is pivots[1] and list(pivots) == [1]
        with pytest.raises(KeyError):
            pivots[2]


class TestEliminateInPattern:
    def test_updates_outside_the_pattern_are_discarded(self):
        # pivot 1's tail reaches 5 (in the row), 7 (a pattern slot at
        # 0.0) and 8 (outside the pattern)
        ops, row = eliminate_in_pattern(
            [1, 5], [2.0, 1.0], [1, 5, 7], pkey_of([1]), {1: ([5, 7, 8], [1.0, 2.0, 3.0], 4.0)}
        )
        assert row == [(1, 0.5), (5, 0.5), (7, -1.0)]  # the multiplier stays in its slot
        assert (ops, type(ops)) == (1 + 2 * 2, int)

    def test_pivots_go_by_key_and_see_earlier_updates(self):
        # key order 3 then 1: pivot 3's tail changes slot 1 before 1 is
        # consumed, and both tails land on 6
        pivots = {3: ([1, 6], [1.0, 1.0], 1.0), 1: ([6], [2.0], 2.0)}
        ops, row = eliminate_in_pattern([1, 3, 6], [1.0, 2.0, 0.0], [1, 3, 6], pkey_of([3, 1]), pivots)
        assert row == [(1, -0.5), (3, 2.0), (6, -1.0)]
        assert ops == (1 + 2 * 2) + (1 + 2)

    def test_zero_entry_at_a_pivot_is_skipped_and_zeros_vanish(self):
        ops, row = eliminate_in_pattern(
            [1, 5], [0.0, -0.0], [1, 5, 7], pkey_of([1]), {1: ([5], [1.0], 4.0)}
        )
        assert (ops, row) == (0, [])

    def test_no_dropping_a_tiny_multiplier_is_kept_and_applied(self):
        ops, row = eliminate_in_pattern(
            [1, 5], [1e-300, 1.0], [1, 5], pkey_of([1]), {1: ([5], [1e300], 1e10)}
        )
        assert row == [(1, 1e-310), (5, 1.0 - 1e-310 * 1e300)]
        assert ops == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_accumulator_loop_on_random_rows(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(60):
            cols, vals, pkey, u_rows, _ = random_case(rng)
            extra = rng.choice(N, rng.integers(0, 5), replace=False)
            pattern = np.union1d(cols, extra)
            want_ops, (want_cols, want_vals) = reference_eliminate_in_pattern(
                cols, vals, pattern, pkey, u_rows
            )
            ops, row = eliminate_in_pattern(
                cols.tolist(), vals.tolist(), pattern.tolist(), pkey, PivotRows(u_rows)
            )
            assert ops == want_ops
            assert bits(row) == (want_cols.tobytes(), want_vals.tobytes())


# ----------------------------------------------------------------------
# the dropping-rule tails
# ----------------------------------------------------------------------


class TestTails:
    def test_keep_largest_breaks_ties_toward_the_lower_column(self):
        row = [(2, -1.0), (4, 3.0), (6, 1.0), (8, -1.0)]
        assert keep_largest_entries(row, 2) == [(2, -1.0), (4, 3.0)]
        assert keep_largest_entries(row, 3) == [(2, -1.0), (4, 3.0), (6, 1.0)]
        assert keep_largest_entries(row, 4) == row
        assert keep_largest_entries(row, 0) == []

    def test_l_row_without_an_old_row_copies_the_multipliers(self):
        # elimination order in, column order out; -0.0 keeps its sign
        got = l_row([], [(8, 2.0), (3, -0.0)], 0.0, 5)
        assert got == [(3, -0.0), (8, 2.0)]
        assert np.signbit(got[0][1])

    def test_l_row_merges_into_zeros_only_when_both_sides_exist(self):
        washed = l_row([(0, -0.0)], [(3, -0.0)], 0.0, 5)
        assert washed == [(0, 0.0), (3, 0.0)]
        assert not np.signbit(washed[0][1]) and not np.signbit(washed[1][1])
        kept = l_row([(0, -0.0)], [], 0.0, 5)
        assert np.signbit(kept[0][1])

    def test_l_row_sums_a_column_present_on_both_sides(self):
        assert l_row([(1, 1.0), (3, 3.0)], [(4, 4.0), (3, 10.0)], 0.0, 5) == [
            (1, 1.0),
            (3, 13.0),
            (4, 4.0),
        ]

    def test_l_row_thresholds_then_keeps_the_m_largest(self):
        old = [(0, 0.05), (1, -0.4)]
        new = [(3, 0.4), (2, 0.2)]
        assert l_row(old, new, 0.1, 5) == [(1, -0.4), (2, 0.2), (3, 0.4)]
        assert l_row(old, new, 0.1, 2) == [(1, -0.4), (3, 0.4)]
        assert l_row(old, new, 0.1, 1) == [(1, -0.4)]  # tie: lower column
        assert l_row(old, new, 0.1, 0) == []

    def test_u_row_thresholds_keeps_m_and_puts_the_pivot_first(self):
        rest = [(5, 4.0), (6, 0.05), (7, -1.0), (8, 1.0), (9, 2.0)]
        tail_cols, tail_vals, pivot = u_row(5, rest, 0.1, 2, GUARD, 1.0)
        assert (tail_cols, tail_vals, pivot) == ([7, 9], [-1.0, 2.0], 4.0)
        assert type(pivot) is float
        cols, vals = u_row_arrays(5, (tail_cols, tail_vals, pivot))
        assert (cols.dtype, cols.tolist()) == (np.int64, [5, 7, 9])
        assert (vals.dtype, vals.tolist()) == (np.float64, [4.0, -1.0, 2.0])

    def test_a_small_diagonal_is_not_thresholded(self):
        assert u_row(5, [(5, 1e-9), (7, 1.0)], 0.1, 2, GUARD, 1.0) == ([7], [1.0], 1e-9)
        assert reduced_row(5, [(5, 1e-9), (7, 1.0)], 0.1, None) == [(5, 1e-9), (7, 1.0)]

    @pytest.mark.parametrize(
        "row5, u1",
        [
            (([1, 5, 7], [2.0, 1.0, 3.0]), ([1, 5], [4.0, 2.0])),  # 1.0 - 0.5 * 2.0 == 0.0
            (([1, 5, 7], [-2.0, -1.0, 3.0]), ([1, 5], [4.0, 2.0])),  # -1.0 + 0.5 * 2.0
            (([1, 7], [2.0, 3.0]), ([1, 8], [4.0, 1.0])),  # structurally absent
        ],
    )
    def test_absent_or_cancelled_diagonal_goes_through_the_pivot_policy(self, row5, u1):
        rest = eliminate_row(*row5, 0.1, pkey_of([1]), pivots_of({1: u1}))[3]
        assert 5 not in dict(rest)
        # guard: tau if positive, else the row norm, else 1.0
        assert u_row(5, rest, 0.1, 3, GUARD, 2.0)[2] == 0.1
        assert u_row(5, rest, 0.0, 3, GUARD, 2.0)[2] == 2.0
        assert u_row(5, rest, 0.0, 3, GUARD, 0.0)[2] == 1.0
        with pytest.raises(ZeroPivotError) as err:
            u_row(5, rest, 0.1, 3, PivotPolicy("raise"), 2.0)
        assert err.value.row == 5
        shifted = u_row(5, rest, 0.1, 3, PivotPolicy("shift"), 2.0)[2]
        assert shifted == 0.1 * 2.0
        # the reduced row always carries its diagonal slot, as +0.0
        slot = dict(reduced_row(5, rest, 0.1, None))[5]
        assert slot == 0.0 and not np.signbit(slot)

    def test_reduced_row_cap_counts_the_diagonal(self):
        rest = [(3, 1.0), (5, 0.01), (6, -1.0), (8, 2.0), (9, 0.05)]
        assert reduced_row(5, rest, 0.1, None) == [(3, 1.0), (5, 0.01), (6, -1.0), (8, 2.0)]
        assert reduced_row(5, rest, 0.1, 3) == [(3, 1.0), (5, 0.01), (8, 2.0)]  # tie: lower column
        assert reduced_row(5, rest, 0.1, 1) == [(5, 0.01)]

    def test_row_arrays_carry_explicit_dtypes_even_when_empty(self):
        cols, vals = row_arrays([])
        assert (cols.dtype, cols.size, vals.dtype, vals.size) == (np.int64, 0, np.float64, 0)


# ----------------------------------------------------------------------
# the kernel against the array formulation
# ----------------------------------------------------------------------


def random_case(rng):
    """A random row over ``N`` columns with random pivot rows whose
    tails may hold later pivots (fill chains), values on a coarse grid
    so that exact cancellation and magnitude ties really occur."""
    order = rng.permutation(N)[: rng.integers(1, 7)].tolist()
    pkey = pkey_of(order)
    grid = np.array([-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0])
    u_rows = {}
    for k in order:
        tail = np.sort(rng.choice(np.setdiff1d(np.arange(N), [k]), rng.integers(0, 5), replace=False))
        u_rows[k] = arrays([k, *tail], [rng.choice([1.0, 2.0, -4.0]), *rng.choice(grid, tail.size)])
    cols = np.sort(rng.choice(N, rng.integers(1, 8), replace=False))
    vals = rng.choice(grid, cols.size)
    free = np.setdiff1d(np.arange(N), order)
    old_cols = np.sort(rng.choice(free, rng.integers(0, min(4, free.size + 1)), replace=False))
    l_old = arrays(old_cols, rng.choice(grid, old_cols.size))
    return cols, vals, pkey, u_rows, l_old


@pytest.mark.parametrize("seed", range(8))
def test_kernel_equals_the_array_formulation_on_random_rows(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        cols, vals, pkey, u_rows, l_old = random_case(rng)
        i = int(rng.integers(N))
        tau = float(rng.choice([0.0, 0.3, 0.6]))
        m = int(rng.integers(0, 4))
        cap = [None, 1, 2, 3][rng.integers(4)]
        want_ops, want_reads, want_l, want_rest = reference_eliminate(
            cols, vals, tau, pkey, u_rows, l_old, m
        )
        ops, reads, mult, rest = eliminate_row(
            cols.tolist(), vals.tolist(), tau, pkey, PivotRows(u_rows)
        )
        assert (ops, reads) == (want_ops, want_reads)
        assert bits(rest) == (want_rest[0].tobytes(), want_rest[1].tobytes())
        got_l = l_row(entries_of(l_old), mult, tau, m)
        assert bits(got_l) == (want_l[0].tobytes(), want_l[1].tobytes())
        want_u = reference_u_row(i, *want_rest, tau, m, GUARD, 1.5)
        got_u = u_row_arrays(i, u_row(i, rest, tau, m, GUARD, 1.5))
        assert [a.tobytes() for a in got_u] == [a.tobytes() for a in want_u]
        want_r = reference_reduced_row(i, *want_rest, tau, cap)
        assert bits(reduced_row(i, rest, tau, cap)) == (want_r[0].tobytes(), want_r[1].tobytes())


# ----------------------------------------------------------------------
# through the engine's thunk bodies
# ----------------------------------------------------------------------


def engine_with(reduced, u_rows, l_rows=None, *, cls=EliminationEngine, m=5, t=0.1):
    """An engine (identity matrix: every row norm is 1, so ``tau = t``)
    whose phase-2 state is exactly the given rows, tracer on."""
    decomp = decompose(CSRMatrix.identity(N), 1, method="block")
    engine = cls(decomp, m, t, sim=Simulator(1, CRAY_T3D, trace=True))
    engine.reduced = store_of(N, reduced)
    engine.u_rows = store_of(N, u_rows)
    engine.l_rows = store_of(N, l_rows or {})
    return engine


class TestThroughTheEngine:
    def test_old_l_row_is_merged_as_in_update_remaining(self):
        u_rows = {1: ([1, 7], [4.0, 1.0])}
        pkey = np.asarray(pkey_of([1]), dtype=np.int64)

        def l_of(reduced5, l_rows):
            engine = engine_with({5: reduced5}, u_rows, l_rows, t=0.0)
            (rec,) = records_of(engine._compute_update_rows(np.array([5]), pkey))
            return rec

        alone = l_of(([1, 5], [-TINY, 1.0]), None)
        assert np.signbit(alone.l_row[1]).tolist() == [True]  # copied
        merged = l_of(([1, 5], [-TINY, 1.0]), {5: ([0], [0.25])})
        assert merged.l_row[0].tolist() == [0, 1]
        assert np.signbit(merged.l_row[1]).tolist() == [False, False]  # summed into zeros
        washed = l_of(([1, 5], [2.0, 1.0]), {5: ([0], [-0.0])})
        assert np.signbit(washed.l_row[1]).tolist() == [False, False]
        assert (washed.ops, type(washed.ops)) == (3, int)
        assert (washed.copy_words, type(washed.copy_words)) == (2.0 + 2.0, float)
        assert washed.decls == [
            ("r", "reduced-row", 5),
            ("r", "u-row", 1),
            ("w", "l-row", 5),
            ("w", "reduced-row", 5),
        ]
        assert [a.dtype for a in (*washed.l_row, *washed.reduced_row)] == [
            np.int64,
            np.float64,
            np.int64,
            np.float64,
        ]

    def test_a_domain_orders_its_pivots_by_position(self):
        # rows 8 then 3: row 3 eliminates pivot 8 although 8 > 3, reads
        # it from the thunk-local cache, and is charged ops + len(rest)
        engine = engine_with(
            {8: ([3, 8], [1.0, 2.0]), 3: ([3, 8, 9], [4.0, 1.0, 1.0])},
            {},
            cls=InterfacePartitionEngine,
            t=0.0,
        )
        first, second = records_of(engine._compute_domain(np.array([8, 3], dtype=np.int64)))
        assert first.l_row is None and second.l_row[0].tolist() == [8]
        assert first.u_row[0].tolist() == [8, 3] and first.u_row[1].tolist() == [2.0, 1.0]
        assert second.l_row[1].tolist() == [0.5]
        assert second.u_row[0].tolist() == [3, 9] and second.u_row[1].tolist() == [3.5, 1.0]
        assert (first.ops, second.ops) == (0 + 2.0, 3 + 2.0)
        assert first.decls == [("r", "reduced-row", 8), ("w", "u-row", 8)]
        assert second.decls == [
            ("r", "reduced-row", 3),
            ("r", "u-row", 8),
            ("w", "l-row", 3),
            ("w", "u-row", 3),
        ]

    def test_phase_one_declares_what_it_always_declared(self):
        # poisson2d(4) on two ranks, recorded at the commit before the
        # scalar kernel: row 4 holds pivot 0 and reaches 1 and 2 through
        # fill; every other read is likewise in elimination order
        decomp = decompose(poisson2d(4), 2, method="block")
        engine = EliminationEngine(decomp, 3, 0.01, sim=Simulator(2, CRAY_T3D, trace=True))
        interior = engine._compute_interior_block(0)
        engine._merge_blocks([interior, None])
        interior = records_of(interior)
        interface = records_of(engine._compute_interface_reduction(0))

        def reads(rec):
            return [idx for kind, space, idx in rec.decls if (kind, space) == ("r", "u-row")]

        assert [(r.row, r.ops, reads(r)) for r in interior] == [
            (0, 0, []),
            (1, 5, [0]),
            (2, 7, [1]),
            (3, 7, [2]),
        ]
        assert [(r.row, r.ops, reads(r)) for r in interface] == [
            (4, 13, [0, 1, 2]),
            (5, 15, [1, 2, 3]),
            (6, 14, [2, 3]),
            (7, 7, [3]),
        ]
        assert interior[1].decls == [
            ("r", "A-row", 1),
            ("r", "u-row", 0),
            ("w", "l-row", 1),
            ("w", "u-row", 1),
        ]
        assert interface[0].decls == [
            ("r", "A-row", 4),
            ("r", "u-row", 0),
            ("r", "u-row", 1),
            ("r", "u-row", 2),
            ("w", "l-row", 4),
            ("w", "reduced-row", 4),
        ]
