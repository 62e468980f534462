"""Batched level schedules: level parity, solve parity, cache behaviour."""

import gc

import numpy as np
import pytest

from repro import ILUTParams, poisson2d
from repro.ilu import ilut, parallel_ilut_star
from repro.kernels import (
    BatchedTriangularSchedule,
    cached_analysis,
    cached_schedules,
    clear_schedule_cache,
    triangular_diagonal,
    triangular_levels,
)
from repro.resilience import ZeroDiagonalError, ZeroPivotError
from repro.sparse import CSRMatrix

from ..ilu import _trisolve
from . import _scalar


def star_factors(nx=14, p=8):
    A = poisson2d(nx)
    r = parallel_ilut_star(
        A, ILUTParams(fill=6, threshold=1e-3, k=2), p, seed=0, transport="none"
    )
    return r.factors


class TestLevelsParity:
    """``triangular_levels`` (the recurrence over list rows) against the
    row-at-a-time oracle."""

    def check(self, M, *, lower):
        assert np.array_equal(triangular_levels(M, lower=lower), _trisolve.levels(M, lower=lower))

    def test_empty_matrix(self):
        self.check(CSRMatrix.zeros(5), lower=True)
        self.check(CSRMatrix.zeros(5), lower=False)

    def test_single_row(self):
        self.check(CSRMatrix.zeros(1), lower=True)
        self.check(CSRMatrix.zeros(1), lower=False)

    def test_chain_is_sequential(self):
        # strict lower bidiagonal: row i depends on i-1, levels 0..n-1
        n = 6
        L = CSRMatrix.from_coo(
            np.arange(1, n), np.arange(0, n - 1), np.ones(n - 1), (n, n)
        )
        assert np.array_equal(triangular_levels(L, lower=True), np.arange(n))
        self.check(L, lower=True)

    def test_block_structure(self):
        # two independent 2-chains: levels [0,1,0,1]
        L = CSRMatrix.from_coo([1, 3], [0, 2], [1.0, 1.0], (4, 4))
        assert np.array_equal(triangular_levels(L, lower=True), [0, 1, 0, 1])

    def test_stages_count_their_levels_apart(self):
        # with stage labels only entries inside a stage are dependencies:
        # the oracle's levels of the factor with every other entry removed
        f = star_factors()
        stage = np.arange(f.n) % 3 - 1
        for M, lower in ((f.L, True), (f.U, False)):
            rows = np.repeat(np.arange(f.n), np.diff(M.indptr))
            inside = stage[rows] == stage[M.indices]
            assert not inside.all()
            cut = CSRMatrix.from_coo(rows[inside], M.indices[inside], M.data[inside], M.shape)
            want = _trisolve.levels(cut, lower=lower)
            assert np.array_equal(triangular_levels(M, lower=lower, stage=stage), want)

    def test_ilut_factors(self, medium_poisson):
        f = ilut(medium_poisson, ILUTParams(fill=8, threshold=1e-3))
        self.check(f.L, lower=True)
        self.check(f.U, lower=False)

    def test_parallel_factors(self):
        f = star_factors()
        self.check(f.L, lower=True)
        self.check(f.U, lower=False)


class TestBatchedSolve:
    """The serial applier sums each row left to right from ``0.0``, as
    the row-by-row oracle does: equal bits, not close ones."""

    def test_forward_matches_reference(self):
        f = star_factors()
        sched = BatchedTriangularSchedule(f.L, lower=True, unit_diagonal=True)
        b = np.linspace(-1, 1, f.n)
        assert np.array_equal(sched.solve(b), _trisolve.forward(f.L, b))

    def test_backward_matches_reference(self):
        f = star_factors()
        sched = BatchedTriangularSchedule(f.U, lower=False, unit_diagonal=False)
        b = np.linspace(1, 2, f.n)
        assert np.array_equal(sched.solve(b), _trisolve.backward(f.U, b))

    def test_small_row_after_large_ones_keeps_its_bits(self):
        # rows 4 and 5 share level 1; row 4 sums terms of scale 1e8,
        # row 5 terms of scale 1.  Differencing a running prefix sum
        # leaves row 5 an absolute error of eps * 2e8; bincount sums
        # each row on its own, from 0.0
        L = CSRMatrix.from_coo(
            [4, 4, 5, 5], [0, 1, 2, 3], [1e8, 1e8, 0.7, 0.9], (6, 6)
        )
        b = np.array([1.0, 1.0, 0.1, 0.3, 5.0, 2.0])
        sched = BatchedTriangularSchedule(L, lower=True, unit_diagonal=True)
        assert sched.level_sizes.tolist() == [4, 2]
        want = _trisolve.forward(L, b)
        assert np.array_equal(sched.solve(b), want)
        prefix = b.copy()
        prefix[4:] -= _scalar.prefix_sums(L.data * b[L.indices], np.array([0, 2, 4]))
        assert prefix[4] == want[4] and prefix[5] != want[5]

    def test_level_sizes_cover_all_rows(self):
        f = star_factors()
        sched = BatchedTriangularSchedule(f.L, lower=True, unit_diagonal=True)
        assert sched.level_sizes.sum() == f.n
        assert sched.num_levels == sched.level_sizes.size

    def test_entries_outside_the_triangle_are_rejected(self):
        from repro.ilu import ILUFactors

        eye = CSRMatrix.identity(3)
        for M, lower, unit in (
            (CSRMatrix.from_coo([0], [2], [1.0], (3, 3)), True, True),  # above, in L
            (eye, True, True),  # a stored unit diagonal
            (eye + CSRMatrix.from_coo([2], [0], [1.0], (3, 3)), False, False),  # below, in U
        ):
            with pytest.raises(ValueError, match="outside the"):
                BatchedTriangularSchedule(M, lower=lower, unit_diagonal=unit)
        bad = ILUFactors(L=CSRMatrix.from_coo([0], [2], [1.0], (3, 3)), U=eye, perm=np.arange(3))
        with pytest.raises(ValueError):
            bad.solve(np.ones(3))

    def test_diagonal_only_upper_single_level(self):
        U = CSRMatrix.from_coo([0, 1], [0, 1], [2.0, 4.0], (2, 2))
        sched = BatchedTriangularSchedule(U, lower=False, unit_diagonal=False)
        assert sched.num_levels == 1
        assert np.allclose(sched.solve(np.array([2.0, 8.0])), [1.0, 2.0])


class TestTriangularDiagonal:
    def test_returns_the_stored_diagonal(self):
        U = CSRMatrix.from_coo([0, 0, 1], [0, 1, 1], [2.0, 3.0, 4.0], (2, 2))
        assert triangular_diagonal(U).tolist() == [2.0, 4.0]

    def test_missing_and_zero_diagonals_are_typed(self):
        with pytest.raises(ZeroDiagonalError):
            triangular_diagonal(CSRMatrix.from_coo([0], [0], [1.0], (2, 2)))
        with pytest.raises(ZeroPivotError):
            triangular_diagonal(CSRMatrix.from_coo([0, 1], [0, 1], [1.0, 0.0], (2, 2)))


class TestScheduleCache:
    def test_cache_hits_same_objects(self):
        clear_schedule_cache()
        f = star_factors()
        fwd1, bwd1 = cached_schedules(f)
        fwd2, bwd2 = cached_schedules(f)
        assert fwd1 is fwd2 and bwd1 is bwd2

    def test_clear_forces_rebuild(self):
        f = star_factors()
        fwd1, _ = cached_schedules(f)
        clear_schedule_cache()
        fwd2, _ = cached_schedules(f)
        assert fwd1 is not fwd2

    def test_entry_evicted_with_factors(self):
        from repro.kernels.triangular import _SCHEDULE_CACHE

        clear_schedule_cache()
        f = star_factors()
        cached_schedules(f)
        assert len(_SCHEDULE_CACHE) == 1
        del f
        gc.collect()
        assert len(_SCHEDULE_CACHE) == 0

    def test_analyses_share_one_entry_per_factors(self):
        from repro.kernels.triangular import _SCHEDULE_CACHE

        clear_schedule_cache()
        f = star_factors()
        built = []
        first = cached_analysis(f, "probe", lambda g: built.append(g.n) or object())
        assert cached_analysis(f, "probe", lambda g: built.append(g.n) or object()) is first
        cached_schedules(f)
        assert built == [f.n] and len(_SCHEDULE_CACHE) == 1
        assert set(_SCHEDULE_CACHE[id(f)]) == {"probe", "schedules"}
        del f
        gc.collect()
        assert not _SCHEDULE_CACHE

    def test_distinct_factors_distinct_entries(self):
        clear_schedule_cache()
        f1, f2 = star_factors(), star_factors(nx=10, p=4)
        s1, s2 = cached_schedules(f1), cached_schedules(f2)
        assert s1[0] is not s2[0]


class TestApplierUsesCache:
    """``ILUFactors.solve`` and GMRES's ``ILUPreconditioner`` are the
    serial level applier, on schedules cached per factors object."""

    def test_applier_parity_with_factors_solve(self):
        from repro.solvers import ILUPreconditioner

        f = star_factors()
        b = np.sin(np.arange(f.n))
        x = ILUPreconditioner(f).apply(b)
        assert np.array_equal(f.solve(b), x)
        assert np.array_equal(x, _trisolve.solve(f, b))

    def test_two_appliers_share_schedules(self):
        clear_schedule_cache()
        f = star_factors()
        (fwd1, bwd1), (fwd2, bwd2) = cached_schedules(f), cached_schedules(f)
        assert fwd1 is fwd2 and bwd1 is bwd2

    def test_rejects_bad_rhs(self):
        f = star_factors()
        with pytest.raises(ValueError):
            f.solve(np.ones(f.n + 1))
