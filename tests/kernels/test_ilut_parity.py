"""Bit-exactness of the ``backend="vectorized"`` ILUT against the oracle.

The fast path (a loop over the scalar row kernel, ``repro.ilu.row``) is
held to *element-exact* agreement — same sparsity patterns, same stored
values, same flop count — because it performs the same multiply-adds in
the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ILUTParams, poisson2d, torso_like
from repro.ilu import ilut
from repro.matrices import random_diag_dominant
from repro.sparse import CSRMatrix


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
        assert_factors_bit_identical(
            ilut(A, params, backend="reference"),
            ilut(A, params, backend="vectorized"),
        )

    def test_torso(self):
        A = torso_like(250, seed=0)
        p = ILUTParams(fill=8, threshold=1e-3)
        assert_factors_bit_identical(
            ilut(A, p, backend="reference"), ilut(A, p, backend="vectorized")
        )

    def test_nonsymmetric(self, small_nonsym):
        p = ILUTParams(fill=6, threshold=1e-3)
        assert_factors_bit_identical(
            ilut(small_nonsym, p, backend="reference"),
            ilut(small_nonsym, p, backend="vectorized"),
        )

    def test_diag_guard_off(self, small_diagdom):
        p = ILUTParams(fill=5, threshold=1e-2)
        assert_factors_bit_identical(
            ilut(small_diagdom, p, backend="reference", diag_guard=False),
            ilut(small_diagdom, p, backend="vectorized", diag_guard=False),
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
        assert_factors_bit_identical(
            ilut(A, p, backend="reference"), ilut(A, p, backend="vectorized")
        )


class TestDispatch:
    def test_use_backend_routes_to_vectorized(self, small_poisson, monkeypatch):
        """The default-backend context must actually reach the fast kernel."""
        from repro.kernels import use_backend
        import sys

        kernel_mod = sys.modules["repro.ilu.ilut"]  # ``repro.ilu.ilut`` is the function

        sentinel = RuntimeError("vectorized kernel invoked")

        def boom(*a, **k):
            raise sentinel

        monkeypatch.setattr(kernel_mod, "_ilut_rows", boom)
        p = ILUTParams(fill=5, threshold=1e-3)
        ilut(small_poisson, p)  # reference default: kernel untouched
        with use_backend("vectorized"):
            with pytest.raises(RuntimeError, match="vectorized kernel invoked"):
                ilut(small_poisson, p)

    def test_explicit_backend_beats_default(self, small_poisson):
        from repro.kernels import use_backend

        p = ILUTParams(fill=5, threshold=1e-3)
        with use_backend("vectorized"):
            f = ilut(small_poisson, p, backend="reference")
        assert_factors_bit_identical(f, ilut(small_poisson, p, backend="reference"))


class TestParallelEnginesParity:
    """EliminationEngine under both backends: factors AND accounting agree."""

    def test_parallel_ilut_bit_identical(self):
        from repro.ilu import parallel_ilut

        A = poisson2d(16)
        p = ILUTParams(fill=6, threshold=1e-3)
        r0 = parallel_ilut(A, p, 4, seed=0, backend="reference")
        r1 = parallel_ilut(A, p, 4, seed=0, backend="vectorized")
        assert_factors_bit_identical(r0.factors, r1.factors)
        assert r0.modeled_time == r1.modeled_time
        assert r0.flops == r1.flops
        assert r0.comm == r1.comm
        assert np.array_equal(r0.factors.perm, r1.factors.perm)

    def test_parallel_ilut_star_bit_identical(self):
        from repro.ilu import parallel_ilut_star

        A = random_diag_dominant(300, 5, seed=3)
        p = ILUTParams(fill=5, threshold=1e-3, k=2)
        r0 = parallel_ilut_star(A, p, 4, seed=0, backend="reference")
        r1 = parallel_ilut_star(A, p, 4, seed=0, backend="vectorized")
        assert_factors_bit_identical(r0.factors, r1.factors)
        assert r0.modeled_time == r1.modeled_time
        assert r0.flops == r1.flops


def assert_ilut_stats_present(f):
    assert {"flops", "fill_nnz"} <= set(f.stats)


def test_empty_matrix_edge_case():
    A = CSRMatrix.zeros(1)
    # 1x1 all-zero: diag_guard substitutes a pivot, both backends agree
    p = ILUTParams(fill=2, threshold=1e-3)
    assert_factors_bit_identical(
        ilut(A, p, backend="reference"), ilut(A, p, backend="vectorized")
    )
