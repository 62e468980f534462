"""Unit tests for the RCM ordering."""

import numpy as np
import pytest

from repro.graph import bandwidth, rcm_ordering, rcm_ordering_matrix
from repro.ilu.params import ILUTParams
from repro.matrices import poisson2d, random_geometric_laplacian
from repro.sparse import CSRMatrix


class TestRCM:
    def test_permutation_valid(self):
        perm = rcm_ordering_matrix(poisson2d(8))
        assert sorted(perm.tolist()) == list(range(64))

    def test_restores_grid_bandwidth_after_shuffle(self, rng):
        """A randomly-shuffled grid has huge bandwidth; RCM recovers
        something close to the natural nx."""
        nx = 10
        A = poisson2d(nx)
        shuffle = rng.permutation(nx * nx)
        B = A.permute(shuffle, shuffle)
        assert bandwidth(B) > 3 * nx
        perm = rcm_ordering_matrix(B)
        assert bandwidth(B.permute(perm, perm)) <= 2 * nx

    def test_reduces_bandwidth_on_irregular(self, rng):
        A = random_geometric_laplacian(150, seed=2)
        shuffle = rng.permutation(150)
        B = A.permute(shuffle, shuffle)
        perm = rcm_ordering_matrix(B)
        assert bandwidth(B.permute(perm, perm)) <= bandwidth(B)

    def test_disconnected_graph_covered(self):
        # two disconnected paths
        rows = [0, 1, 1, 2, 3, 4]
        cols = [1, 0, 2, 1, 4, 3]
        A = CSRMatrix.from_coo(rows, cols, np.ones(6), (5, 5))
        from repro.graph import adjacency_from_matrix

        perm = rcm_ordering(adjacency_from_matrix(A))
        assert sorted(perm.tolist()) == list(range(5))

    def test_bandwidth_helper(self):
        A = CSRMatrix.from_dense(
            np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [3.0, 0.0, 1.0]])
        )
        assert bandwidth(A) == 2
        assert bandwidth(CSRMatrix.identity(4)) == 0

    def test_rcm_helps_ilut_fill_on_shuffled_matrix(self, rng):
        """Lower bandwidth concentrates ILUT fill — the practical payoff."""
        from repro.ilu import ilut

        nx = 12
        A = poisson2d(nx)
        shuffle = rng.permutation(nx * nx)
        B = A.permute(shuffle, shuffle)
        n = B.shape[0]
        fill_shuffled = ilut(B, ILUTParams(fill=n, threshold=0.0)).nnz
        perm = rcm_ordering_matrix(B)
        fill_rcm = ilut(B.permute(perm, perm), ILUTParams(fill=n, threshold=0.0)).nnz
        assert fill_rcm < fill_shuffled
