"""Batched level schedules: level parity, solve parity, cache behaviour."""

import gc

import numpy as np
import pytest

from repro import ILUTParams, poisson2d
from repro.ilu import ilut, parallel_ilut_star
from repro.ilu.apply import LevelScheduledApplier, triangular_levels
from repro.kernels import (
    BatchedTriangularSchedule,
    cached_schedules,
    clear_schedule_cache,
    triangular_levels_vectorized,
)
from repro.sparse import CSRMatrix, lower_solve_unit, upper_solve


def star_factors(nx=14, p=8):
    A = poisson2d(nx)
    r = parallel_ilut_star(
        A, ILUTParams(fill=6, threshold=1e-3, k=2), p, seed=0, transport="none"
    )
    return r.factors


class TestLevelsParity:
    def check(self, M, *, lower):
        ref = triangular_levels(M, lower=lower)
        vec = triangular_levels_vectorized(M, lower=lower)
        assert np.array_equal(ref, vec)

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
        assert np.array_equal(
            triangular_levels_vectorized(L, lower=True), np.arange(n)
        )
        self.check(L, lower=True)

    def test_block_structure(self):
        # two independent 2-chains: levels [0,1,0,1]
        L = CSRMatrix.from_coo([1, 3], [0, 2], [1.0, 1.0], (4, 4))
        assert np.array_equal(
            triangular_levels_vectorized(L, lower=True), [0, 1, 0, 1]
        )

    def test_ilut_factors(self, medium_poisson):
        f = ilut(medium_poisson, ILUTParams(fill=8, threshold=1e-3))
        self.check(f.L, lower=True)
        self.check(f.U, lower=False)

    def test_parallel_factors(self):
        f = star_factors()
        self.check(f.L, lower=True)
        self.check(f.U, lower=False)


class TestBatchedSolve:
    def test_forward_matches_reference(self):
        f = star_factors()
        sched = BatchedTriangularSchedule(f.L, lower=True, unit_diagonal=True)
        b = np.linspace(-1, 1, f.n)
        x_ref = lower_solve_unit(f.L, b)
        x_vec = sched.solve(b)
        scale = np.max(np.abs(x_ref)) or 1.0
        assert np.max(np.abs(x_ref - x_vec)) / scale <= 1e-12

    def test_backward_matches_reference(self):
        f = star_factors()
        sched = BatchedTriangularSchedule(f.U, lower=False, unit_diagonal=False)
        b = np.linspace(1, 2, f.n)
        x_ref = upper_solve(f.U, b)
        x_vec = sched.solve(b)
        scale = np.max(np.abs(x_ref)) or 1.0
        assert np.max(np.abs(x_ref - x_vec)) / scale <= 1e-12

    def test_level_sizes_cover_all_rows(self):
        f = star_factors()
        sched = BatchedTriangularSchedule(f.L, lower=True, unit_diagonal=True)
        assert sched.level_sizes.sum() == f.n
        assert sched.num_levels == sched.level_sizes.size

    def test_diagonal_only_upper_single_level(self):
        U = CSRMatrix.from_coo([0, 1], [0, 1], [2.0, 4.0], (2, 2))
        sched = BatchedTriangularSchedule(U, lower=False, unit_diagonal=False)
        assert sched.num_levels == 1
        assert np.allclose(sched.solve(np.array([2.0, 8.0])), [1.0, 2.0])


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

    def test_distinct_factors_distinct_entries(self):
        clear_schedule_cache()
        f1, f2 = star_factors(), star_factors(nx=10, p=4)
        s1, s2 = cached_schedules(f1), cached_schedules(f2)
        assert s1[0] is not s2[0]


class TestApplierUsesCache:
    def test_applier_parity_with_factors_solve(self):
        f = star_factors()
        app = LevelScheduledApplier(f)
        b = np.sin(np.arange(f.n))
        x_ref = f.solve(b)
        x_vec = app.apply(b)
        scale = np.max(np.abs(x_ref)) or 1.0
        assert np.max(np.abs(x_ref - x_vec)) / scale <= 1e-12

    def test_two_appliers_share_schedules(self):
        clear_schedule_cache()
        f = star_factors()
        a1, a2 = LevelScheduledApplier(f), LevelScheduledApplier(f)
        assert a1._fwd is a2._fwd and a1._bwd is a2._bwd

    def test_rejects_bad_rhs(self):
        f = star_factors()
        with pytest.raises(ValueError):
            LevelScheduledApplier(f).apply(np.ones(f.n + 1))
