"""Unit tests for the nested-dissection ordering."""

import numpy as np
import pytest

from repro.graph import Graph, adjacency_from_matrix
from repro.ilu import ilut
from repro.ilu.params import ILUTParams
from repro.matrices import poisson2d, random_geometric_laplacian
from repro.partition import (
    nested_dissection,
    nested_dissection_matrix,
    partition_graph_kway,
    vertex_separator_from_cut,
)


class TestSeparator:
    def test_separator_disconnects(self):
        g = adjacency_from_matrix(poisson2d(8))
        res = partition_graph_kway(g, 2, seed=0)
        vertices = np.arange(64, dtype=np.int64)
        sep = vertex_separator_from_cut(g, res.part, vertices)
        # removing the separator leaves no cross-part edge
        sep_set = set(sep.tolist())
        for v in range(64):
            if v in sep_set:
                continue
            for u in g.neighbors(v):
                if int(u) in sep_set:
                    continue
                assert res.part[v] == res.part[int(u)]

    def test_no_cut_no_separator(self):
        g = adjacency_from_matrix(poisson2d(4))
        part = np.zeros(16, dtype=np.int64)
        sep = vertex_separator_from_cut(g, part, np.arange(16, dtype=np.int64))
        assert sep.size == 0

    def test_separator_smaller_than_cut_endpoints(self):
        g = adjacency_from_matrix(poisson2d(10))
        res = partition_graph_kway(g, 2, seed=0)
        sep = vertex_separator_from_cut(g, res.part, np.arange(100, dtype=np.int64))
        # vertex cover of the cut is at most all endpoints, usually one side
        assert 0 < sep.size <= 2 * res.edge_cut


class TestNestedDissection:
    def test_permutation_valid(self):
        perm = nested_dissection_matrix(poisson2d(12), seed=0)
        assert sorted(perm.tolist()) == list(range(144))

    def test_reduces_exact_lu_fill_on_grid(self):
        A = poisson2d(16)
        n = A.shape[0]
        f_nat = ilut(A, ILUTParams(fill=n, threshold=0.0))
        perm = nested_dissection_matrix(A, seed=0)
        f_nd = ilut(A.permute(perm, perm), ILUTParams(fill=n, threshold=0.0))
        assert f_nd.nnz < f_nat.nnz

    def test_reduces_fill_on_irregular(self):
        A = random_geometric_laplacian(120, seed=1)
        n = A.shape[0]
        f_nat = ilut(A, ILUTParams(fill=n, threshold=0.0))
        perm = nested_dissection_matrix(A, seed=0)
        f_nd = ilut(A.permute(perm, perm), ILUTParams(fill=n, threshold=0.0))
        assert f_nd.nnz <= f_nat.nnz

    def test_min_size_respected(self):
        # with min_size >= n the ordering is trivial (identity-ish cover)
        A = poisson2d(4)
        perm = nested_dissection_matrix(A, min_size=16)
        assert sorted(perm.tolist()) == list(range(16))

    def test_clique_terminates(self):
        # a clique has no separator-free bisection: recursion must stop
        n = 12
        rows, cols = [], []
        for i in range(n):
            for j in range(n):
                if i != j:
                    rows.append(i)
                    cols.append(j)
        from repro.sparse import CSRMatrix

        A = CSRMatrix.from_coo(rows, cols, np.ones(len(rows)), (n, n))
        g = adjacency_from_matrix(A)
        perm = nested_dissection(g, min_size=2, seed=0)
        assert sorted(perm.tolist()) == list(range(n))

    def test_deterministic(self):
        A = poisson2d(10)
        p1 = nested_dissection_matrix(A, seed=3)
        p2 = nested_dissection_matrix(A, seed=3)
        assert np.array_equal(p1, p2)
