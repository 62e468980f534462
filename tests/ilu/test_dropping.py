"""Unit tests for the three ILUT dropping rules, as the row kernel's
tails (``repro.ilu.row``) apply them."""

from repro.ilu.row import keep_largest_entries

from ._rows import second_rule, third_rule


class TestKeepLargest:
    def test_keeps_m_largest_by_magnitude(self):
        row = [(1, 0.1), (3, -5.0), (5, 2.0), (7, -0.5)]
        assert keep_largest_entries(row, 2) == [(3, -5.0), (5, 2.0)]

    def test_result_column_sorted(self):
        # selected largest first (9, then 5), returned by column
        row = [(2, 1.0), (5, 2.0), (9, 3.0)]
        assert keep_largest_entries(row, 2) == [(5, 2.0), (9, 3.0)]

    def test_m_zero_empty(self):
        assert keep_largest_entries([(1, 1.0)], 0) == []

    def test_fewer_than_m_keeps_all(self):
        assert keep_largest_entries([(0, 1.0), (1, 2.0)], 10) == [(0, 1.0), (1, 2.0)]

    def test_tie_break_deterministic(self):
        row = [(2, -1.0), (4, 1.0), (8, 1.0)]
        # ties go to lower column index
        assert [c for c, _ in keep_largest_entries(row, 2)] == [2, 4]

    def test_empty_input(self):
        assert keep_largest_entries([], 3) == []


class TestSecondRule:
    def test_splits_l_diag_u(self):
        row = [(0, 1.0), (2, -2.0), (3, 4.0), (5, 0.5)]
        lower, (tail_cols, _, pivot) = second_rule(row, 3, 0.0, 5)
        assert [c for c, _ in lower] == [0, 2]
        assert pivot == 4.0
        assert tail_cols == [5]

    def test_threshold_drops_small(self):
        row = [(0, 0.01), (1, 0.05), (3, 0.02)]
        lower, (tail_cols, _, pivot) = second_rule(row, 2, 0.1, 5)
        assert lower == [] and tail_cols == []
        assert pivot == 0.1  # missing diagonal is a zero pivot: the guard gives tau

    def test_threshold_keeps_large(self):
        row = [(0, 0.01), (1, 5.0), (3, 0.02)]
        lower, (tail_cols, _, _) = second_rule(row, 2, 0.1, 5)
        assert lower == [(1, 5.0)]
        assert tail_cols == []

    def test_diag_kept_below_threshold(self):
        _, (_, _, pivot) = second_rule([(1, 1e-8)], 1, 1.0, 5)
        assert pivot == 1e-8

    def test_m_cap_per_side(self):
        row = list(enumerate([5.0, 4.0, 3.0, 9.0, 3.0, 4.0, 5.0]))
        lower, (tail_cols, _, _) = second_rule(row, 3, 0.0, 2)
        assert [c for c, _ in lower] == [0, 1]
        assert tail_cols == [5, 6]


class TestThirdRule:
    # columns 0..4 factored, 5..9 unfactored
    FACTORED = frozenset(range(5))

    def test_l_part_thresholded_and_capped(self):
        row = [(0, 3.0), (1, 0.001), (2, -4.0), (6, 1.0)]
        lower, reduced = third_rule(row, 6, 0.01, 1, self.FACTORED)
        assert [c for c, _ in lower] == [2]  # largest of the two surviving
        assert [c for c, _ in reduced] == [6]

    def test_reduced_uncapped_without_cap(self):
        row = [(5, 1.0), (6, 2.0), (7, 3.0), (8, 4.0), (9, 5.0)]
        _, reduced = third_rule(row, 5, 0.0, 2, self.FACTORED)
        assert len(reduced) == 5  # plain ILUT keeps everything above threshold

    def test_reduced_capped_ilutstar(self):
        row = [(5, 1.0), (6, 2.0), (7, 3.0), (8, 4.0), (9, 5.0)]
        _, reduced = third_rule(row, 5, 0.0, 2, self.FACTORED, cap=3)
        assert len(reduced) == 3
        assert 5 in dict(reduced)  # diagonal survives the cap

    def test_diagonal_survives_threshold(self):
        _, reduced = third_rule([(5, 1e-12), (7, 5.0)], 5, 1.0, 2, self.FACTORED)
        assert dict(reduced)[5] == 1e-12

    def test_missing_diagonal_inserted_as_zero(self):
        _, reduced = third_rule([(7, 5.0)], 5, 0.0, 2, self.FACTORED)
        assert reduced == [(5, 0.0), (7, 5.0)]

    def test_cap_one_keeps_only_diagonal(self):
        row = [(5, 1.0), (6, 9.0), (7, 9.0)]
        _, reduced = third_rule(row, 5, 0.0, 2, self.FACTORED, cap=1)
        assert [c for c, _ in reduced] == [5]
