"""Unit tests for the ILUFactors container and LevelStructure."""

import numpy as np
import pytest

from repro.ilu import ILUFactors, LevelStructure, ilut, parallel_ilut
from repro.ilu.params import ILUTParams
from repro.matrices import poisson2d
from repro.sparse import CSRMatrix


class TestILUFactors:
    def test_solve_applies_permutation(self, rng):
        # manual 2x2: A = [[2, 0], [0, 4]] with perm reversing order
        L = CSRMatrix.zeros(2)
        U = CSRMatrix.from_dense(np.diag([4.0, 2.0]))
        perm = np.array([1, 0])
        f = ILUFactors(L=L, U=U, perm=perm)
        b = np.array([2.0, 4.0])
        x = f.solve(b)
        assert np.allclose(x, [1.0, 1.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ILUFactors(
                L=CSRMatrix.zeros(2), U=CSRMatrix.zeros(3), perm=np.arange(2)
            )
        with pytest.raises(ValueError):
            ILUFactors(
                L=CSRMatrix.zeros(2), U=CSRMatrix.zeros(2), perm=np.arange(3)
            )

    def test_nnz_and_fill_factor(self, small_poisson):
        f = ilut(small_poisson, ILUTParams(fill=5, threshold=1e-3))
        assert f.nnz == f.L.nnz + f.U.nnz
        assert f.fill_factor(small_poisson) == f.nnz / small_poisson.nnz

    def test_solve_shape_check(self, small_poisson):
        f = ilut(small_poisson, ILUTParams(fill=5, threshold=1e-3))
        with pytest.raises(ValueError):
            f.solve(np.ones(3))

    def test_triangular_flops_positive(self, small_poisson):
        f = ilut(small_poisson, ILUTParams(fill=5, threshold=1e-3))
        assert f.triangular_flops() > 0

    def test_repr_mentions_levels(self):
        r = parallel_ilut(poisson2d(8), ILUTParams(fill=5, threshold=1e-2), 2, transport="none")
        assert "levels=" in repr(r.factors)


class TestLevelStructure:
    def test_validate_accepts_exact_tiling(self):
        ls = LevelStructure(
            interior_ranges=[(0, 3), (3, 5)],
            interface_levels=[np.array([5, 6]), np.array([7])],
            owner=np.zeros(8, dtype=np.int64),
        )
        ls.validate(8)

    def test_validate_rejects_overlap(self):
        ls = LevelStructure(
            interior_ranges=[(0, 3)],
            interface_levels=[np.array([2, 3])],
            owner=np.zeros(4, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            ls.validate(4)

    def test_validate_rejects_gap(self):
        ls = LevelStructure(
            interior_ranges=[(0, 2)],
            interface_levels=[],
            owner=np.zeros(3, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            ls.validate(3)

    def test_num_levels_and_sizes(self):
        ls = LevelStructure(
            interior_ranges=[(0, 1)],
            interface_levels=[np.array([1, 2]), np.array([3])],
            owner=np.zeros(4, dtype=np.int64),
        )
        assert ls.num_levels == 2
        assert ls.level_sizes() == [2, 1]

    def test_parallel_result_has_valid_structure(self):
        r = parallel_ilut(poisson2d(10), ILUTParams(fill=5, threshold=1e-2), 4, transport="none", seed=0)
        assert r.factors.levels is not None
        r.factors.levels.validate(100)
        assert r.factors.levels.num_levels == r.num_levels
