"""The level kernel against the scalar row kernel, on hand-built states.

Every case sets an engine's reduced rows, U rows and L rows by hand and
runs the same rows through the two thunk bodies — the scalar
``_compute_update_rows`` (Algorithm 4.1 row by row) and the batched
``_compute_level_update`` — which must return equal blocks, compared
row by row: equal *bits* (the sign of a zero included), equal operation
counts of equal type, equal tracer declarations.  The cases are the
places where a batched formulation can silently differ from the scalar
one.
"""

import numpy as np
import pytest

from repro.decomp import decompose
from repro.ilu.elimination import EliminationEngine
from repro.ilu.level import level_pivots, level_update
from repro.machine import CRAY_T3D, Simulator
from repro.sparse import CSRMatrix

from ._rows import flat_of, records_of, store_of

N = 12
TINY = 5e-324  # smallest subnormal: TINY / 4 underflows to zero


def engine_with(reduced, u_rows, l_rows=None, *, m=5, t=0.1, cap=None):
    """An engine (identity matrix: every row norm is 1, so ``tau = t``)
    whose phase-2 state is exactly the given rows, tracer on."""
    decomp = decompose(CSRMatrix.identity(N), 1, method="block")
    engine = EliminationEngine(
        decomp, m, t, reduced_cap=cap, sim=Simulator(1, CRAY_T3D, trace=True)
    )
    engine.reduced = store_of(N, reduced)
    engine.u_rows = store_of(N, u_rows)
    engine.l_rows = store_of(N, l_rows or {})
    return engine


def bits(a):
    return a.dtype, a.tobytes()


def assert_same_records(got, want):
    assert [r.row for r in got] == [r.row for r in want]
    for g, w in zip(got, want):
        for part in ("l_row", "reduced_row"):
            (gc, gv), (wc, wv) = getattr(g, part), getattr(w, part)
            assert bits(gc) == bits(wc), (g.row, part, gc, wc)
            assert bits(gv) == bits(wv), (g.row, part, gv, wv)
        assert g.u_row is None and w.u_row is None
        assert (g.ops, type(g.ops)) == (w.ops, type(w.ops))
        assert (g.copy_words, type(g.copy_words)) == (w.copy_words, type(w.copy_words))
        assert g.decls == w.decls


def update(reduced, u_rows, l_rows=None, **kw):
    """Records of the batched thunk body, checked against the scalar's."""
    engine = engine_with(reduced, u_rows, l_rows, **kw)
    rows = np.array(sorted(engine.reduced), dtype=np.int64)
    pivots = np.array(sorted(engine.u_rows), dtype=np.int64)
    batched = engine._compute_level_update(rows, level_pivots(N, pivots, engine.u_rows))
    scalar = engine._compute_update_rows(rows, engine._pivot_keys(pivots, pivots))
    assert batched.source == scalar.source == "reduced-row"
    batched, scalar = records_of(batched), records_of(scalar)
    assert_same_records(batched, scalar)
    return {r.row: r for r in batched}


class TestAgainstRowKernel:
    def test_plain_elimination_with_fill(self):
        recs = update(
            {5: ([1, 2, 5, 7], [2.0, -3.0, 4.0, 1.0]), 6: ([2, 6], [1.0, 5.0])},
            {1: ([1, 7, 8], [4.0, 1.0, 2.0]), 2: ([2, 5, 9], [2.0, 1.0, -1.0])},
        )
        # row 5: multipliers 0.5 and -1.5; col 7 updated, 8 and 9 are fill
        assert recs[5].l_row[0].tolist() == [1, 2]
        assert recs[5].l_row[1].tolist() == [0.5, -1.5]
        assert recs[5].reduced_row[0].tolist() == [5, 7, 8, 9]
        assert recs[5].reduced_row[1].tolist() == [5.5, 0.5, -1.0, -1.5]
        assert recs[5].ops == 2 + 2 * 2 + 2 * 2
        assert recs[5].copy_words == 6.0
        assert recs[5].decls == [
            ("r", "reduced-row", 5),
            ("r", "u-row", 1),
            ("r", "u-row", 2),
            ("w", "l-row", 5),
            ("w", "reduced-row", 5),
        ]

    def test_contributions_arrive_in_ascending_pivot_order(self):
        # (1e16 + 1) - 1e16 == 0 but (1e16 - 1e16) + 1 == 1: the fill at
        # column 9 is only right if pivots 1, 2, 3 are applied in order
        recs = update(
            {5: ([1, 2, 3, 5], [-1.0, -1.0, -1.0, 1.0])},
            {
                1: ([1, 9], [1.0, 1e16]),
                2: ([2, 9], [1.0, 1.0]),
                3: ([3, 9], [1.0, -1e16]),
            },
            t=0.0,
        )
        assert recs[5].reduced_row[0].tolist() == [5]  # column 9 cancelled to 0.0
        recs = update(
            {5: ([1, 2, 3, 5], [-1.0, -1.0, -1.0, 1.0])},
            {
                1: ([1, 9], [1.0, 1e16]),
                2: ([2, 9], [1.0, -1e16]),
                3: ([3, 9], [1.0, 1.0]),
            },
            t=0.0,
        )
        assert recs[5].reduced_row[1].tolist() == [1.0, 1.0]

    def test_negative_zero_multiplier_copied_or_summed(self):
        # t = 0 keeps a multiplier that underflowed to -0.0.  With no old
        # L row _merge_rows copies it (-0.0 survives); with one it sums
        # into zeros (-0.0 becomes +0.0)
        u_rows = {1: ([1, 7], [4.0, 1.0])}
        alone = update({5: ([1, 5], [-TINY, 1.0])}, u_rows, t=0.0)
        assert np.signbit(alone[5].l_row[1]).tolist() == [True]
        merged = update({5: ([1, 5], [-TINY, 1.0])}, u_rows, {5: ([0], [0.25])}, t=0.0)
        assert merged[5].l_row[0].tolist() == [0, 1]
        assert np.signbit(merged[5].l_row[1]).tolist() == [False, False]
        # ... and an old -0.0 is washed the same way, but only when new
        # multipliers arrive
        washed = update({5: ([1, 5], [2.0, 1.0])}, u_rows, {5: ([0], [-0.0])}, t=0.0)
        assert np.signbit(washed[5].l_row[1]).tolist() == [False, False]
        kept = update({5: ([1, 5], [0.0, 1.0])}, u_rows, {5: ([0], [-0.0])}, t=0.0)
        assert np.signbit(kept[5].l_row[1]).tolist() == [True]

    @pytest.mark.parametrize(
        "row5",
        [
            ([1, 5, 7], [2.0, 1.0, 3.0]),  # 1.0 - 0.5 * 2.0: cancels to +0.0
            ([1, 5, 7], [-2.0, -1.0, 3.0]),  # -1.0 + 0.5 * 2.0: also +0.0 ...
            ([1, 7], [2.0, 3.0]),  # structurally absent, filled to 0.5 * -2
            ([1, 7, 8], [2.0, 3.0, 1.0]),  # absent and untouched
        ],
    )
    def test_diagonal_slot_always_kept(self, row5):
        tail = ([1, 5], [4.0, 2.0]) if 8 not in row5[0] else ([1, 9], [4.0, 2.0])
        recs = update({5: row5}, {1: tail})
        cols, vals = recs[5].reduced_row
        at = cols.tolist().index(5)
        if row5[0] == [1, 7]:
            assert vals[at] == -1.0
        else:
            assert vals[at] == 0.0 and not np.signbit(vals[at])

    def test_diagonal_cancelling_to_negative_zero_is_positive_zero(self):
        # 0.0 fill slot + (-0.5 * 0.0) = -0.0 under t = 0: the slot is +0.0
        recs = update({5: ([1, 7], [2.0, 3.0])}, {1: ([1, 5], [4.0, 0.0])}, t=0.0)
        cols, vals = recs[5].reduced_row
        assert cols.tolist() == [5, 7]
        assert vals[0] == 0.0 and not np.signbit(vals[0])

    def test_multiplier_below_tau_costs_one_op_and_is_not_applied(self):
        recs = update(
            {5: ([1, 2, 5], [0.2, 2.0, 1.0])},  # 0.2 / 4 = 0.05 < tau = 0.1
            {1: ([1, 7], [4.0, 100.0]), 2: ([2, 8], [4.0, 1.0])},
        )
        assert recs[5].l_row[0].tolist() == [2]
        assert recs[5].reduced_row[0].tolist() == [5, 8]  # no fill at 7
        assert recs[5].ops == 1 + (1 + 2)
        # the dropped pivot's U row was still read
        assert ("r", "u-row", 1) in recs[5].decls

    def test_zero_pivot_entry_costs_nothing_and_reads_nothing(self):
        recs = update(
            {5: ([1, 2, 5], [0.0, 2.0, 1.0]), 6: ([1, 6], [-0.0, 1.0])},
            {1: ([1, 7], [4.0, 1.0]), 2: ([2, 8], [4.0, 1.0])},
            t=0.0,
        )
        assert recs[5].ops == 1 + 2
        assert ("r", "u-row", 1) not in recs[5].decls
        # row 6 holds a pivot column, so it is rebuilt — with no work done
        assert recs[6].ops == 0 and type(recs[6].ops) is int
        assert recs[6].l_row[0].size == 0
        assert recs[6].reduced_row[0].tolist() == [6]
        assert recs[6].decls == [
            ("r", "reduced-row", 6), ("w", "l-row", 6), ("w", "reduced-row", 6),
        ]

    def test_exact_cancellation_removes_the_entry(self):
        recs = update(
            {5: ([1, 5, 7], [2.0, 1.0, 3.0])},
            {1: ([1, 7], [4.0, 6.0])},  # 3.0 - 0.5 * 6.0
            t=0.0,
        )
        assert recs[5].reduced_row[0].tolist() == [5]

    def test_stored_zeros_vanish_when_the_row_is_rebuilt(self):
        recs = update(
            {5: ([1, 5, 7, 8], [2.0, 1.0, 0.0, -0.0])}, {1: ([1, 9], [4.0, 1.0])}, t=0.0
        )
        assert recs[5].reduced_row[0].tolist() == [5, 9]

    def test_row_without_pivots_produces_no_record(self):
        recs = update(
            {5: ([1, 5], [2.0, 1.0]), 6: ([6, 7], [1.0, 2.0]), 8: ([8], [1.0])},
            {1: ([1, 7], [4.0, 1.0])},
            {6: ([0], [0.5])},
        )
        assert sorted(recs) == [5]

    def test_m_zero_keeps_no_l_entries(self):
        recs = update(
            {5: ([1, 5], [2.0, 1.0])}, {1: ([1, 7], [4.0, 1.0])}, {5: ([0], [0.5])}, m=0
        )
        assert recs[5].l_row[0].size == 0
        assert recs[5].reduced_row[0].tolist() == [5, 7]  # still applied

    def test_reduced_cap_one_keeps_only_the_diagonal(self):
        recs = update(
            {5: ([1, 5, 7], [2.0, 1.0, 3.0]), 6: ([1, 7, 8], [2.0, 3.0, 1.0])},
            {1: ([1, 9], [4.0, 1.0])},
            cap=1,
        )
        assert recs[5].reduced_row[0].tolist() == [5]
        assert recs[6].reduced_row[0].tolist() == [6]  # absent diagonal: +0.0 slot
        assert recs[6].reduced_row[1].tolist() == [0.0]

    def test_ties_at_the_mth_magnitude_go_to_the_lower_column(self):
        recs = update(
            {5: ([1, 2, 3, 5, 7, 8, 9], [2.0, -2.0, 2.0, 1.0, 3.0, -3.0, 3.0])},
            {1: ([1], [4.0]), 2: ([2], [4.0]), 3: ([3], [4.0])},
            {5: ([0], [0.5])},
            m=2,
            cap=3,
        )
        # L candidates 0.5 @0, 0.5 @1, -0.5 @2, 0.5 @3: all tie, keep 0 and 1
        assert recs[5].l_row[0].tolist() == [0, 1]
        # reduced: cap 3 = diagonal + two of the three |3.0| entries
        assert recs[5].reduced_row[0].tolist() == [5, 7, 8]

    def test_threshold_applies_to_old_l_entries_too(self):
        recs = update(
            {5: ([1, 5], [2.0, 1.0])}, {1: ([1], [4.0])}, {5: ([0, 3], [0.05, 0.3])}
        )
        assert recs[5].l_row[0].tolist() == [1, 3]

    def test_many_rows_with_uneven_pivot_counts(self):
        # rounds: row 4 has three surviving pivots, row 5 one, row 6 two
        u_rows = {
            1: ([1, 8, 9], [2.0, 1.0, 1.0]),
            2: ([2, 9, 10], [2.0, -1.0, 3.0]),
            3: ([3, 8, 10, 11], [2.0, 0.5, 0.25, 1.0]),
        }
        recs = update(
            {
                4: ([1, 2, 3, 4, 9], [1.0, 2.0, 3.0, 9.0, 1.0]),
                5: ([2, 5, 10], [4.0, 1.0, 1.0]),
                6: ([1, 3, 6], [-2.0, 6.0, 2.0]),
                7: ([7, 8], [1.0, 1.0]),
            },
            u_rows,
            {4: ([0], [1.0]), 6: ([0], [2.0])},
            t=0.0,
        )
        assert sorted(recs) == [4, 5, 6]
        assert recs[4].ops == 3 + 2 * (2 + 2 + 3)


def random_state(rng):
    """A random independent level over N columns: pivot rows whose tails
    avoid every pivot, reduced rows that may hold pivots, zeros and
    subnormals, and old L rows over already-factored columns."""
    cols = rng.permutation(N)
    factored, pivots, rest = cols[:2], np.sort(cols[2:5]), np.sort(cols[5:])
    pick = [0.0, -0.0, TINY, -TINY, 1.0, -1.0, 0.5, 2.0, 3.0, -3.0, 1e16, -1e16]
    u_rows = {}
    for k in pivots.tolist():
        tail = np.sort(rng.choice(rest, size=rng.integers(0, 4), replace=False))
        u_rows[k] = (
            [k, *tail.tolist()],
            [float(rng.choice([1.0, 2.0, 4.0, -4.0])), *rng.choice(pick, size=tail.size)],
        )
    reduced, l_rows = {}, {}
    for i in rest.tolist():
        if rng.random() < 0.2:
            continue
        others = np.concatenate((pivots, rest[rest != i]))
        c = rng.choice(others, size=rng.integers(0, 6), replace=False)
        if rng.random() < 0.8:
            c = np.append(c, i)
        c = np.sort(c)
        reduced[i] = (c.tolist(), rng.choice(pick, size=c.size).tolist())
        if rng.random() < 0.5:
            lc = np.sort(rng.choice(factored, size=rng.integers(1, 3), replace=False))
            l_rows[i] = (lc.tolist(), rng.choice(pick, size=lc.size).tolist())
    return reduced, u_rows, l_rows


@pytest.mark.parametrize("seed", range(60))
def test_random_states_match_the_row_kernel(seed):
    rng = np.random.default_rng(seed)
    reduced, u_rows, l_rows = random_state(rng)
    if not reduced:
        return
    update(
        reduced,
        u_rows,
        l_rows,
        m=int(rng.integers(0, 4)),
        t=float(rng.choice([0.0, 0.3, 1.5])),
        cap=[None, 1, 2, 4][int(rng.integers(0, 4))],
    )


class TestPreconditions:
    def test_dependent_pivots_raise(self):
        u_rows = store_of(N, {1: ([1, 2, 7], [4.0, 1.0, 1.0]), 2: ([2, 8], [4.0, 1.0])})
        with pytest.raises(ValueError, match="not independent: column 2"):
            level_pivots(N, np.array([1, 2]), u_rows)

    def test_pivot_table_is_sorted_whatever_the_order_given(self):
        u_rows = store_of(N, {3: ([3, 9], [2.0, 1.0]), 1: ([1], [4.0])})
        table = level_pivots(N, np.array([3, 1]), u_rows)
        assert table.ordinal[[1, 3]].tolist() == [0, 1]
        assert table.diag.tolist() == [4.0, 2.0]
        assert table.tails.ptr.tolist() == [0, 0, 1]
        assert table.tails.cols.tolist() == [9]

    def test_pivot_column_in_an_old_l_row_raises(self):
        table = level_pivots(N, np.array([1]), store_of(N, {1: ([1, 7], [4.0, 1.0])}))
        with pytest.raises(ValueError, match="old L row"):
            level_update(
                table,
                np.array([5]),
                flat_of([([1, 5], [2.0, 1.0])]),
                flat_of([([1], [0.5])]),
                np.array([0.0]),
                5,
                None,
            )

    def test_no_row_touched(self):
        table = level_pivots(N, np.array([1]), store_of(N, {1: ([1, 7], [4.0, 1.0])}))
        out = level_update(
            table,
            np.array([5, 6]),
            flat_of([([5], [1.0]), ([], [])]),
            flat_of([([], []), ([0], [1.0])]),
            np.array([0.1, 0.1]),
            5,
            2,
        )
        assert out.rows.size == 0 and out.ops.size == 0 and out.read_ptr.tolist() == [0]
        assert out.reduced.cols.size == 0 and out.l_rows.cols.size == 0
