"""Bit-exactness of the serial ILUT against its accumulator oracle.

``ilut`` (a loop over the scalar row kernel, ``repro.ilu.row``) is held
to *element-exact* agreement with the full-working-row loop it replaced
(``tests/ilu/_ilut.py``) — same sparsity patterns, same stored values,
same flop count — because it performs the same multiply-adds in the
same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ILUTParams, poisson2d, torso_like
from repro.ilu import ilut
from repro.matrices import random_diag_dominant
from repro.resilience import PivotPolicy
from repro.sparse import CSRMatrix

from ..ilu import _ilut


def assert_factors_bit_identical(fa, fb):
    for name in ("L", "U"):
        Ma, Mb = getattr(fa, name), getattr(fb, name)
        assert np.array_equal(Ma.indptr, Mb.indptr), f"{name}.indptr differs"
        assert np.array_equal(Ma.indices, Mb.indices), f"{name}.indices differs"
        assert np.array_equal(Ma.data, Mb.data), f"{name}.data differs"
    # sequential ilut() records flops/fill_nnz; parallel factors do not
    assert fa.stats.get("flops") == fb.stats.get("flops")
    assert fa.stats.get("fill_nnz") == fb.stats.get("fill_nnz")


PARAM_GRID = [
    ILUTParams(fill=5, threshold=1e-2),
    ILUTParams(fill=10, threshold=1e-4),
    ILUTParams(fill=3, threshold=0.0),
]


class TestSequentialParity:
    @pytest.mark.parametrize("params", PARAM_GRID, ids=lambda p: p.describe())
    def test_poisson(self, params):
        A = poisson2d(12)
        assert_factors_bit_identical(_ilut.ilut(A, params), ilut(A, params))

    def test_torso(self):
        A = torso_like(250, seed=0)
        p = ILUTParams(fill=8, threshold=1e-3)
        assert_factors_bit_identical(_ilut.ilut(A, p), ilut(A, p))

    def test_nonsymmetric(self, small_nonsym):
        p = ILUTParams(fill=6, threshold=1e-3)
        assert_factors_bit_identical(_ilut.ilut(small_nonsym, p), ilut(small_nonsym, p))

    def test_raise_policy(self, small_diagdom):
        p = ILUTParams(fill=5, threshold=1e-2)
        assert_factors_bit_identical(
            _ilut.ilut(small_diagdom, p, pivot_policy=PivotPolicy("raise")),
            ilut(small_diagdom, p, pivot_policy=PivotPolicy("raise")),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        extra=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        m=st.integers(min_value=1, max_value=8),
        t=st.sampled_from([0.0, 1e-6, 1e-3, 1e-1]),
    )
    def test_hypothesis_random_diagdom(self, n, extra, seed, m, t):
        A = random_diag_dominant(n, extra, seed=seed)
        p = ILUTParams(fill=m, threshold=t)
        assert_factors_bit_identical(_ilut.ilut(A, p), ilut(A, p))


def test_empty_matrix_edge_case():
    A = CSRMatrix.zeros(1)
    # 1x1 all-zero: the default guard substitutes a pivot, as the oracle does
    p = ILUTParams(fill=2, threshold=1e-3)
    assert_factors_bit_identical(_ilut.ilut(A, p), ilut(A, p))
