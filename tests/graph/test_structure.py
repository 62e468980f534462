"""Unit tests for graph construction from matrices."""

import numpy as np
import pytest

from repro.graph import Graph, adjacency_from_matrix, symmetrize_structure
from repro.sparse import CSRMatrix


def path_graph_matrix(n=4):
    """Tridiagonal matrix → path graph."""
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i), cols.append(i), vals.append(2.0)
        if i > 0:
            rows.append(i), cols.append(i - 1), vals.append(-1.0)
        if i < n - 1:
            rows.append(i), cols.append(i + 1), vals.append(-1.0)
    return CSRMatrix.from_coo(rows, cols, vals, (n, n))


class TestGraph:
    def test_degrees_and_neighbors(self):
        g = adjacency_from_matrix(path_graph_matrix(4))
        assert g.nvertices == 4
        assert g.degrees().tolist() == [1, 2, 2, 1]
        assert g.neighbors(1).tolist() == [0, 2]

    def test_vertex_weight_defaults(self):
        g = adjacency_from_matrix(path_graph_matrix(3))
        assert g.total_vertex_weight() == 3.0

    def test_weight_length_validation(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 1]), np.array([0]), adjwgt=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Graph(np.array([0, 0]), np.array([], dtype=np.int64), vwgt=np.array([1.0, 1.0]))

    def test_structural_symmetry_check(self):
        g = adjacency_from_matrix(path_graph_matrix(4))
        assert g.is_structurally_symmetric()
        # a directed graph: 0 -> 1 only
        g2 = Graph(np.array([0, 1, 1]), np.array([1]))
        assert not g2.is_structurally_symmetric()


class TestAdjacencyFromMatrix:
    def test_diagonal_dropped(self):
        g = adjacency_from_matrix(path_graph_matrix(3))
        for v in range(3):
            assert v not in g.neighbors(v)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            adjacency_from_matrix(CSRMatrix.zeros(2, 3))

    def test_symmetrizes_oneway_entry(self):
        A = CSRMatrix.from_coo([0], [1], [5.0], (2, 2))
        g = adjacency_from_matrix(A, symmetric=True)
        assert g.neighbors(1).tolist() == [0]

    def test_directed_mode_keeps_asymmetry(self):
        A = CSRMatrix.from_coo([0], [1], [5.0], (2, 2))
        g = adjacency_from_matrix(A, symmetric=False)
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(1).size == 0

    def test_weights_accumulate_both_directions(self):
        A = CSRMatrix.from_coo([0, 1], [1, 0], [3.0, -4.0], (2, 2))
        g = adjacency_from_matrix(A, symmetric=True, include_weights=True)
        assert g.neighbor_weights(0)[0] == pytest.approx(7.0)

    def test_isolated_vertices(self):
        A = CSRMatrix.from_coo([0], [0], [1.0], (3, 3))
        g = adjacency_from_matrix(A)
        assert g.nvertices == 3
        assert all(g.degree(v) == 0 for v in range(3))


class TestSymmetrizeStructure:
    def test_adds_missing_mirror_positions(self):
        A = CSRMatrix.from_coo([0], [1], [5.0], (2, 2))
        S = symmetrize_structure(A)
        assert S.get(0, 1) == 5.0
        assert S.get(1, 0) == 0.0  # present with value zero
        cols, _ = S.row(1)
        assert 0 in cols.tolist()

    def test_preserves_existing_values(self, small_poisson):
        S = symmetrize_structure(small_poisson)
        assert S.allclose(small_poisson)  # already symmetric → same values


class TestFromEdges:
    def test_adjacency_keeps_edge_order_within_a_vertex(self):
        g = Graph.from_edges(4, np.array([2, 0, 2, 0]), np.array([3, 1, 0, 2]))
        assert g.xadj.tolist() == [0, 2, 2, 4, 4]
        assert g.adjncy.tolist() == [1, 2, 3, 0]
        assert g.degrees().tolist() == [2, 0, 2, 0]

    def test_no_edges(self):
        g = Graph.from_edges(3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert g.nvertices == 3 and g.nedges_directed == 0
