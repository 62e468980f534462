"""Unit tests for the parallel level-scheduled triangular solves."""

import numpy as np
import pytest

from repro.ilu import (
    ilut,
    parallel_ilut,
    parallel_ilut_star,
    parallel_triangular_solve,
)
from repro.ilu.params import ILUTParams
from repro.machine import IDEAL, WORKSTATION_CLUSTER
from repro.matrices import poisson2d, torso_like


class TestCorrectness:
    def test_matches_sequential_apply(self, medium_poisson, rng):
        r = parallel_ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-3), 4, seed=0, transport="none")
        b = rng.standard_normal(256)
        ref = r.factors.solve(b)
        out = parallel_triangular_solve(r.factors, b, transport="none")
        assert np.allclose(out.x, ref, rtol=1e-12, atol=1e-14)

    def test_matches_for_many_configs(self, rng):
        A = poisson2d(12)
        b = rng.standard_normal(144)
        for p in (2, 4, 8):
            for m, t in ((5, 1e-2), (10, 1e-5)):
                r = parallel_ilut(A, ILUTParams(fill=m, threshold=t), p, seed=1, transport="none")
                out = parallel_triangular_solve(r.factors, b, transport="none")
                assert np.allclose(out.x, r.factors.solve(b)), (p, m, t)

    def test_simulation_does_not_change_result(self, medium_poisson, rng):
        r = parallel_ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-3), 4, seed=0, transport="none")
        b = rng.standard_normal(256)
        x1 = parallel_triangular_solve(r.factors, b, transport="simulator").x
        x2 = parallel_triangular_solve(r.factors, b, transport="none").x
        assert np.array_equal(x1, x2)

    def test_unstructured(self, rng):
        A = torso_like(250, seed=1)
        r = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-3), 4, seed=0, transport="none")
        b = rng.standard_normal(250)
        out = parallel_triangular_solve(r.factors, b, transport="none")
        assert np.allclose(out.x, r.factors.solve(b))

    def test_requires_level_structure(self, small_poisson):
        f = ilut(small_poisson, ILUTParams(fill=5, threshold=1e-3))  # sequential: no levels
        with pytest.raises(ValueError):
            parallel_triangular_solve(f, np.ones(100))

    def test_rhs_shape_check(self, medium_poisson):
        r = parallel_ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-3), 2, transport="none")
        with pytest.raises(ValueError):
            parallel_triangular_solve(r.factors, np.ones(7))


class TestCostModel:
    def test_flops_match_structure(self, medium_poisson, rng):
        r = parallel_ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-3), 4, seed=0, transport="none")
        out = parallel_triangular_solve(
            r.factors, rng.standard_normal(256), transport="simulator"
        )
        expected = r.factors.triangular_flops()
        assert out.flops == pytest.approx(expected, rel=0.01)

    def test_more_levels_more_barriers(self, rng):
        A = poisson2d(16)
        b = rng.standard_normal(256)
        r_few = parallel_ilut_star(A, ILUTParams(fill=10, threshold=1e-6, k=2), 8, seed=0, transport="none")
        r_many = parallel_ilut(A, ILUTParams(fill=10, threshold=1e-6), 8, seed=0, transport="none")
        s_few = parallel_triangular_solve(r_few.factors, b)
        s_many = parallel_triangular_solve(r_many.factors, b)
        if r_many.num_levels > r_few.num_levels:
            assert s_many.comm.barriers > s_few.comm.barriers

    def test_comm_free_model_faster(self, medium_poisson, rng):
        r = parallel_ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-4), 4, seed=0, transport="none")
        b = rng.standard_normal(256)
        t_ideal = parallel_triangular_solve(r.factors, b, model=IDEAL).modeled_time
        t_slow = parallel_triangular_solve(
            r.factors, b, model=WORKSTATION_CLUSTER
        ).modeled_time
        assert t_ideal < t_slow

    def test_modeled_time_positive(self, medium_poisson, rng):
        r = parallel_ilut(medium_poisson, ILUTParams(fill=5, threshold=1e-3), 4, seed=0, transport="none")
        out = parallel_triangular_solve(r.factors, rng.standard_normal(256))
        assert out.modeled_time > 0
