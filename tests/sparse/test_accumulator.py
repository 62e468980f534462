"""Unit tests for the sparse row accumulator: Saad's full-length
working row, the oracles' elimination loop (``tests/ilu/_accumulator.py``)."""

import numpy as np
import pytest

from ..ilu._accumulator import SparseRowAccumulator


class TestBasics:
    def test_empty(self):
        w = SparseRowAccumulator(5)
        cols, vals = w.extract()
        assert cols.size == 0 and vals.size == 0
        assert len(w) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SparseRowAccumulator(-1)

    def test_load_extract_roundtrip(self):
        w = SparseRowAccumulator(6)
        w.load(np.array([4, 1]), np.array([2.0, 3.0]))
        cols, vals = w.extract()
        assert cols.tolist() == [1, 4]
        assert vals.tolist() == [3.0, 2.0]

    def test_load_on_dirty_accumulator_raises(self):
        w = SparseRowAccumulator(4)
        w.load(np.array([0]), np.array([1.0]))
        with pytest.raises(RuntimeError):
            w.load(np.array([1]), np.array([2.0]))

    def test_reset_allows_reload(self):
        w = SparseRowAccumulator(4)
        w.load(np.array([0, 2]), np.array([1.0, 2.0]))
        w.reset()
        assert len(w) == 0
        w.load(np.array([3]), np.array([5.0]))
        cols, _ = w.extract()
        assert cols.tolist() == [3]

    def test_reset_is_sparse(self):
        # after reset, untouched positions must still read as zero
        w = SparseRowAccumulator(100)
        w.load(np.array([7]), np.array([1.0]))
        w.reset()
        assert np.count_nonzero(w.values) == 0


class TestAxpy:
    def test_axpy_adds_into_existing(self):
        w = SparseRowAccumulator(4)
        w.load(np.array([1]), np.array([1.0]))
        w.axpy(2.0, np.array([1]), np.array([3.0]))
        assert w.get(1) == 7.0

    def test_axpy_creates_fill(self):
        w = SparseRowAccumulator(4)
        w.load(np.array([0]), np.array([1.0]))
        w.axpy(-1.0, np.array([2, 3]), np.array([4.0, 5.0]))
        cols, vals = w.extract()
        assert cols.tolist() == [0, 2, 3]
        assert vals.tolist() == [1.0, -4.0, -5.0]

    def test_axpy_cancellation_drops_from_extract(self):
        w = SparseRowAccumulator(4)
        w.load(np.array([1]), np.array([2.0]))
        w.axpy(1.0, np.array([1]), np.array([-2.0]))
        cols, _ = w.extract()
        assert cols.size == 0

    def test_contains(self):
        w = SparseRowAccumulator(4)
        w.load(np.array([2]), np.array([1.0]))
        assert 2 in w
        assert 1 not in w
        w.drop(2)
        assert 2 not in w


class TestSetDropGet:
    def test_set_new_position(self):
        w = SparseRowAccumulator(4)
        w.set(3, 9.0)
        assert w.get(3) == 9.0
        cols, _ = w.extract()
        assert cols.tolist() == [3]

    def test_drop_keeps_slot_but_extract_skips(self):
        w = SparseRowAccumulator(4)
        w.load(np.array([1, 2]), np.array([1.0, 2.0]))
        w.drop(1)
        cols, vals = w.extract()
        assert cols.tolist() == [2]

    def test_get_untouched_is_zero(self):
        w = SparseRowAccumulator(4)
        assert w.get(0) == 0.0


class TestExtractRange:
    def test_extract_range_splits_l_u(self):
        w = SparseRowAccumulator(10)
        w.load(np.array([1, 3, 5, 7]), np.array([1.0, 2.0, 3.0, 4.0]))
        lc, lv = w.extract_range(0, 4)
        uc, uv = w.extract_range(4, 10)
        assert lc.tolist() == [1, 3] and lv.tolist() == [1.0, 2.0]
        assert uc.tolist() == [5, 7] and uv.tolist() == [3.0, 4.0]

    def test_extract_sorted(self):
        w = SparseRowAccumulator(10)
        w.load(np.array([9, 0, 4]), np.array([1.0, 2.0, 3.0]))
        cols, _ = w.extract(sort=True)
        assert cols.tolist() == [0, 4, 9]
