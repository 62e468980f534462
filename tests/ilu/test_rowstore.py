"""The engine's row store, and the order its merge replays a region in.

The store tests are the operations the engine leans on: replacing a row
is an append, and a gather reads rows in the order asked.  The merge
pin holds what ``_merge_blocks`` must not move when rows travel as one
block per rank: modelled time (a float sum per rank, so order-bound),
the flop and copy counters and the tracer's global access sequence —
recorded on poisson2d(6) at the commit before the store existed.
"""

import hashlib

import numpy as np
import pytest

from repro import ILUTParams, poisson2d, torso_like
from repro.ilu import parallel_ilut
from repro.ilu.rowstore import RowsBuilder, RowStore, gather_rows

from ._rows import flat_of, store_of


def rows_of(flat):
    ptr = flat.ptr.tolist()
    return [
        (flat.cols[a:b].tolist(), flat.vals[a:b].tolist()) for a, b in zip(ptr[:-1], ptr[1:])
    ]


class TestRowStore:
    def test_replace_a_row_then_gather_in_row_order(self):
        store = store_of(6, {4: ([1, 4], [1.0, 2.0]), 2: ([2], [3.0]), 5: ([0, 5], [4.0, 5.0])})
        store.put(np.array([2]), flat_of([([2, 3, 4], [6.0, 7.0, 8.0])]))
        assert rows_of(store.gather(np.array([2, 4, 5]))) == [
            ([2, 3, 4], [6.0, 7.0, 8.0]),
            ([1, 4], [1.0, 2.0]),
            ([0, 5], [4.0, 5.0]),
        ]
        # the order asked for, not the order stored; a row may repeat
        assert rows_of(store.gather(np.array([5, 2, 5])))[1] == ([2, 3, 4], [6.0, 7.0, 8.0])
        assert store.used == 8  # the replaced row's old entry is garbage, not reclaimed
        assert list(store) == [2, 4, 5] and len(store) == 3
        assert store[2][0].tolist() == [2, 3, 4] and 3 not in store

    def test_absent_and_empty_rows_keep_their_dtypes(self):
        store = store_of(4, {1: ([], [])})
        for rows in ([0], [1], [0, 1, 3], []):
            flat = store.gather(np.array(rows, dtype=np.int64))
            assert flat.ptr.tolist() == [0] * (len(rows) + 1)
            assert (flat.cols.dtype, flat.vals.dtype) == (np.int64, np.float64)
        assert 1 in store and store[1][0].size == 0  # stored-but-empty is not absent
        with pytest.raises(KeyError):
            store[0]
        built = RowsBuilder().flat()
        assert (built.ptr.tolist(), built.cols.dtype, built.vals.dtype) == (
            [0], np.int64, np.float64,
        )

    def test_discard_makes_a_row_absent(self):
        store = store_of(4, {1: ([1], [1.0]), 2: ([2], [2.0])})
        store.discard(np.array([1]))
        assert list(store) == [2] and store == {2: store[2]}
        assert rows_of(store.gather(np.array([1, 2]))) == [([], []), ([2], [2.0])]

    def test_a_csr_matrix_is_a_row_buffer_too(self):
        A = poisson2d(3)
        rows = np.array([4, 0])
        flat = gather_rows(A.indptr[:-1], np.diff(A.indptr), A.indices, A.data, rows)
        assert rows_of(flat) == [tuple(a.tolist() for a in A.row(i)) for i in (4, 0)]

    def test_a_full_store_of_garbage_copies_its_live_rows_together(self):
        store = store_of(3, {0: ([0, 1], [1.0, 2.0]), 1: ([1], [3.0]), 2: ([2], [4.0])})
        size = store.cols.size
        for v in (5.0, 6.0):  # row 0 replaced twice: its entries pile up
            store.put(np.array([0]), flat_of([([0, 2], [v, v])]))
        held = store[1]  # a view handed out before the store compacts
        assert store.cols.size == 2 * size and store.used == 8
        store.put(np.array([0]), flat_of([([0], [7.0])]))
        # rows 1 and 2 (row 0 is being replaced) plus the new entry fill
        # at most half of the 8 slots
        assert store.cols.size == 8 and store.used == 3
        # the live rows back to back in start order, then the new row
        assert store.start.tolist() == [2, 0, 1] and store.length.tolist() == [1, 1, 1]
        assert rows_of(store.gather(np.array([0, 1, 2]))) == [
            ([0], [7.0]), ([1], [3.0]), ([2], [4.0]),
        ]
        assert held[1].tolist() == [3.0]


def test_store_buffers_stay_within_four_times_the_peak_live_entries(monkeypatch):
    # a buffer grows only when live entries plus the incoming block fill
    # more than half of it, so it never exceeds four times the most
    # entries its store has held live at once.  The dense factorization
    # writes 31-41 times that: an append-only store would break the bound
    seen: dict[int, dict[str, int]] = {}
    put = RowStore.put

    def tracked(store, rows, flat):
        put(store, rows, flat)
        s = seen.setdefault(id(store), {"peak": 0, "written": 0, "worst": 0})
        s["peak"] = max(s["peak"], int(np.maximum(store.length, 0).sum()))
        s["written"] += flat.cols.size
        assert store.cols.size <= 4 * s["peak"]

    monkeypatch.setattr(RowStore, "put", tracked)
    parallel_ilut(torso_like(300, seed=0), ILUTParams(fill=20, threshold=1e-6), 4)
    assert len(seen) == 3  # the L, U and reduced stores
    assert max(s["written"] / s["peak"] for s in seen.values()) > 30


@pytest.mark.parametrize(
    "p, modeled_time, flops, words_copied, level_sizes, accesses, digest",
    [
        (2, 0.00024326666666666644, 727.0, 154.0, [6, 2, 2, 1, 1], 241,
         "7e35d752100c8301a9e2af68be358fda0d3d0aa6970894c26be871e4a2ff632d"),
        (3, 0.0006738833333333324, 737.0, 419.0, [10, 3, 4, 2, 2, 1, 1, 1], 401,
         "60dba1d13d542d78e14e8feb2875733d25e2e2994e9b3e2762936bb67054c2b3"),
    ],
)
def test_merge_order_is_what_it_always_was(
    p, modeled_time, flops, words_copied, level_sizes, accesses, digest
):
    res = parallel_ilut(
        poisson2d(6), ILUTParams(fill=3, threshold=1e-2), p, seed=0, trace=True, method="block"
    )
    assert (res.modeled_time, res.flops, res.words_copied) == (modeled_time, flops, words_copied)
    assert res.level_sizes == level_sizes
    seq = sorted(
        (a.seq, a.rank, a.kind, space, idx)
        for (space, idx), accs in res.trace.cells()
        for a in accs
    )
    assert [s[0] for s in seq] == list(range(accesses))
    assert hashlib.sha256(repr([s[1:] for s in seq]).encode()).hexdigest() == digest
    if p == 2:
        # the last level but one, readable: rank 0 factors row 14 while
        # rank 1's row 21 is updated against it, interleaved by row id
        assert [s[1:] for s in seq][-11:-3] == [
            (0, "read", "reduced-row", 14),
            (1, "read", "reduced-row", 21),
            (0, "read", "reduced-row", 14),
            (0, "write", "u-row", 14),
            (1, "read", "reduced-row", 21),
            (1, "read", "u-row", 14),
            (1, "write", "l-row", 21),
            (1, "write", "reduced-row", 21),
        ]
