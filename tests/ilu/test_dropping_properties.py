"""Property-based tests for the dropping rules (hypothesis), as the row
kernel's tails (``repro.ilu.row``) apply them."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilu.row import keep_largest_entries

from ._rows import second_rule, third_rule


@st.composite
def sparse_rows(draw, max_n=40):
    """``(n, entries)``: a column-sorted row over ``n`` columns."""
    n = draw(st.integers(1, max_n))
    size = draw(st.integers(0, n))
    cols = draw(
        st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
    )
    vals = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            min_size=len(cols),
            max_size=len(cols),
        )
    )
    return n, sorted(zip(cols, vals))


@settings(max_examples=80, deadline=None)
@given(sparse_rows(), st.integers(0, 12))
def test_keep_largest_invariants(row, m):
    _, entries = row
    kept = keep_largest_entries(entries, m)
    kc = [c for c, _ in kept]
    # size cap
    assert len(kept) <= max(m, 0)
    # sorted unique columns
    assert kc == sorted(set(kc))
    # kept values are a subset with correct pairing
    lookup = dict(entries)
    for c, v in kept:
        assert lookup[c] == v
    # nothing dropped is larger than anything kept
    if kept and len(kept) == m and len(entries) > m:
        kept_min = min(abs(v) for _, v in kept)
        dropped = [abs(v) for c, v in entries if c not in set(kc)]
        if dropped:
            assert max(dropped) <= kept_min + 1e-12


@settings(max_examples=80, deadline=None)
@given(
    sparse_rows(),
    st.integers(0, 39),
    st.floats(0, 10, allow_nan=False),
    st.integers(0, 8),
)
def test_second_rule_invariants(row, i, tau, m):
    n, entries = row
    i = i % n
    lower, (tail_cols, tail_vals, pivot) = second_rule(entries, i, tau, m)
    # partition: L strictly below, U strictly above
    assert all(c < i for c, _ in lower)
    assert all(c > i for c in tail_cols)
    # caps
    assert len(lower) <= m and len(tail_cols) <= m
    # threshold: every kept off-diagonal is >= tau in magnitude
    assert all(abs(v) >= tau for _, v in lower)
    assert all(abs(v) >= tau for v in tail_vals)
    # the pivot is the input's diagonal regardless of tau; a zero or
    # missing one becomes the guard's tau (or the norm, 1.0, at tau = 0)
    diag = dict(entries).get(i, 0.0)
    assert pivot == (diag if diag != 0.0 else (tau if tau > 0 else 1.0))


@settings(max_examples=80, deadline=None)
@given(
    sparse_rows(),
    st.floats(0, 10, allow_nan=False),
    st.integers(0, 8),
    st.one_of(st.none(), st.integers(1, 6)),
    st.integers(0, 2**31 - 1),
)
def test_third_rule_invariants(row, tau, m, cap, seed):
    n, entries = row
    rng = np.random.default_rng(seed)
    is_factored = rng.random(n) < 0.5
    diag_candidates = np.flatnonzero(~is_factored)
    if diag_candidates.size == 0:
        is_factored[0] = False
        diag_candidates = np.asarray([0])
    diag_col = int(diag_candidates[0])
    factored = set(np.flatnonzero(is_factored).tolist())
    lower, reduced = third_rule(entries, diag_col, tau, m, factored, cap)
    lc, rc = [c for c, _ in lower], [c for c, _ in reduced]
    # L part only factored columns; reduced part only unfactored
    assert all(c in factored for c in lc)
    assert not any(c in factored for c in rc)
    # caps
    assert len(lc) <= m
    if cap is not None:
        assert len(rc) <= cap
    # the diagonal slot is always present exactly once
    assert rc.count(diag_col) == 1
    # sortedness
    assert rc == sorted(set(rc))
    # threshold on everything except the diagonal slot
    assert all(abs(v) >= tau for c, v in reduced if c != diag_col)
