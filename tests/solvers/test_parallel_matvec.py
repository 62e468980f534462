"""Unit tests for the distributed matvec."""

import numpy as np
import pytest

from repro.decomp import decompose
from repro.machine import IDEAL, WORKSTATION_CLUSTER
from repro.matrices import poisson2d, torso_like
from repro.solvers import parallel_matvec


class TestCorrectness:
    def test_matches_serial_matvec(self, rng):
        A = poisson2d(12)
        d = decompose(A, 4, seed=0)
        x = rng.standard_normal(144)
        out = parallel_matvec(A, d, x)
        assert np.allclose(out.y, A @ x)

    def test_single_rank(self, rng):
        A = poisson2d(8)
        d = decompose(A, 1)
        x = rng.standard_normal(64)
        out = parallel_matvec(A, d, x)
        assert np.allclose(out.y, A @ x)
        assert out.comm.messages == 0

    def test_unstructured(self, rng):
        A = torso_like(200, seed=0)
        d = decompose(A, 4, seed=1)
        x = rng.standard_normal(200)
        assert np.allclose(parallel_matvec(A, d, x).y, A @ x)

    def test_shape_check(self):
        A = poisson2d(6)
        d = decompose(A, 2, seed=0)
        with pytest.raises(ValueError):
            parallel_matvec(A, d, np.ones(7))

    def test_simulation_invariance(self, rng):
        A = poisson2d(10)
        d = decompose(A, 4, seed=0)
        x = rng.standard_normal(100)
        y1 = parallel_matvec(A, d, x, transport="simulator").y
        y2 = parallel_matvec(A, d, x, transport="none").y
        assert np.array_equal(y1, y2)


class TestCostModel:
    def test_flops_equal_2nnz(self, rng):
        A = poisson2d(10)
        d = decompose(A, 4, seed=0)
        out = parallel_matvec(A, d, rng.standard_normal(100))
        assert out.flops == 2.0 * A.nnz

    def test_messages_match_halo_plan(self, rng):
        A = poisson2d(10)
        d = decompose(A, 4, seed=0)
        out = parallel_matvec(A, d, rng.standard_normal(100))
        assert out.comm.messages == len(d.halo_plan())

    def test_words_proportional_to_boundary(self, rng):
        A = poisson2d(16)
        d = decompose(A, 4, seed=0)
        out = parallel_matvec(A, d, rng.standard_normal(256))
        total_halo = sum(v.size for v in d.halo_plan().values())
        assert out.comm.words_sent == total_halo

    def test_reusing_halo_plan(self, rng):
        A = poisson2d(10)
        d = decompose(A, 4, seed=0)
        plan = d.halo_plan()
        x = rng.standard_normal(100)
        out = parallel_matvec(A, d, x, halo_plan=plan)
        assert np.allclose(out.y, A @ x)

    def test_speedup_with_more_ranks(self, rng):
        """Modelled matvec time shrinks with p (near-linear on the T3D model)."""
        A = poisson2d(32)
        x = rng.standard_normal(A.shape[0])
        t4 = parallel_matvec(A, decompose(A, 4, seed=0), x).modeled_time
        t16 = parallel_matvec(A, decompose(A, 16, seed=0), x).modeled_time
        assert t16 < t4
        assert t4 / t16 > 2.0  # at least half of the ideal 4x

    def test_slow_network_hurts(self, rng):
        A = poisson2d(16)
        d = decompose(A, 8, seed=0)
        x = rng.standard_normal(256)
        t_fast = parallel_matvec(A, d, x, model=IDEAL).modeled_time
        t_slow = parallel_matvec(A, d, x, model=WORKSTATION_CLUSTER).modeled_time
        assert t_slow > t_fast
