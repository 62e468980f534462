"""Unit tests for Luby MIS and the paper's two-step variant."""

import numpy as np
import pytest

from repro.graph import (
    Graph,
    adjacency_from_matrix,
    greedy_mis,
    is_independent_set,
    is_maximal_independent_set,
    luby_mis,
    two_step_luby_mis,
)
from repro.matrices import poisson2d, random_geometric_laplacian


def cycle_graph(n):
    xadj = np.arange(0, 2 * n + 1, 2, dtype=np.int64)
    adjncy = np.empty(2 * n, dtype=np.int64)
    for v in range(n):
        adjncy[2 * v] = (v - 1) % n
        adjncy[2 * v + 1] = (v + 1) % n
    return Graph(xadj, adjncy)


def directed_edge_graph():
    """Two vertices with a single directed edge 0 -> 1 (paper's example)."""
    return Graph(np.array([0, 1, 1]), np.array([1]))


class TestLubyMIS:
    def test_empty_graph(self):
        g = Graph(np.array([0]), np.empty(0, dtype=np.int64))
        assert luby_mis(g).size == 0

    def test_edgeless_graph_takes_all(self):
        g = Graph(np.zeros(6, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert luby_mis(g).tolist() == [0, 1, 2, 3, 4]

    def test_cycle_maximal(self):
        g = cycle_graph(9)
        mis = luby_mis(g, seed=0)
        assert is_maximal_independent_set(g, mis)

    def test_poisson_maximal(self):
        g = adjacency_from_matrix(poisson2d(8))
        mis = luby_mis(g, seed=1)
        assert is_maximal_independent_set(g, mis)

    def test_deterministic_given_seed(self):
        g = adjacency_from_matrix(poisson2d(6))
        assert np.array_equal(luby_mis(g, seed=5), luby_mis(g, seed=5))

    def test_round_cap_yields_independent_subset(self):
        g = adjacency_from_matrix(random_geometric_laplacian(60, seed=2))
        mis = luby_mis(g, seed=0, max_rounds=1)
        assert is_independent_set(g, mis)

    def test_candidates_restriction(self):
        g = cycle_graph(8)
        cand = np.array([0, 1, 2, 3])
        mis = luby_mis(g, seed=0, candidates=cand)
        assert set(mis.tolist()) <= set(cand.tolist())
        assert is_independent_set(g, mis)


class TestTwoStepLuby:
    def test_symmetric_graph_independent_and_eventually_maximal(self):
        g = adjacency_from_matrix(poisson2d(7))
        mis = two_step_luby_mis(g, seed=3, rounds=50)
        assert is_maximal_independent_set(g, mis)

    def test_five_rounds_cover_most(self):
        g = adjacency_from_matrix(poisson2d(10))
        mis5 = two_step_luby_mis(g, seed=3, rounds=5)
        full = two_step_luby_mis(g, seed=3, rounds=200)
        assert is_independent_set(g, mis5)
        assert mis5.size >= 0.7 * full.size  # paper: first rounds find most

    def test_directed_edge_both_cannot_join(self):
        # Luby on the directed structure would admit both vertices; the
        # two-step variant must reject one (the paper's u/v example).
        g = directed_edge_graph()
        mis = two_step_luby_mis(g, seed=0, rounds=10)
        assert mis.size >= 1
        assert not (0 in mis and 1 in mis)

    def test_many_directed_structures_stay_independent(self, rng):
        for trial in range(10):
            n = 30
            # random directed adjacency
            xadj = [0]
            adjncy = []
            for v in range(n):
                nbrs = rng.choice(n - 1, size=rng.integers(0, 5), replace=False)
                nbrs = np.where(nbrs >= v, nbrs + 1, nbrs)
                adjncy.extend(int(u) for u in nbrs)
                xadj.append(len(adjncy))
            g = Graph(np.array(xadj), np.array(adjncy, dtype=np.int64))
            mis = two_step_luby_mis(g, seed=trial, rounds=6)
            # independence w.r.t. the union of both edge directions
            mask = np.zeros(n, dtype=bool)
            mask[mis] = True
            for v in range(n):
                if not mask[v]:
                    continue
                for u in g.neighbors(v):
                    assert not mask[u], f"edge {v}->{u} inside the set"

    def test_progress_on_adversarial_graph(self):
        # complete graph: only one vertex per round can win
        n = 6
        xadj = np.arange(0, n * (n - 1) + 1, n - 1, dtype=np.int64)
        adjncy = np.concatenate(
            [np.delete(np.arange(n), v) for v in range(n)]
        ).astype(np.int64)
        g = Graph(xadj, adjncy)
        mis = two_step_luby_mis(g, seed=0, rounds=3)
        assert mis.size == 1  # exactly one vertex of a clique

    def test_zero_rounds_empty(self):
        g = cycle_graph(5)
        assert two_step_luby_mis(g, rounds=0).size == 0


class TestGreedyMIS:
    def test_maximal(self):
        g = adjacency_from_matrix(poisson2d(6))
        assert is_maximal_independent_set(g, greedy_mis(g))

    def test_order_respected(self):
        g = cycle_graph(4)
        mis = greedy_mis(g, order=np.array([2, 0, 1, 3]))
        assert 2 in mis


class TestPredicates:
    def test_is_independent_detects_violation(self):
        g = cycle_graph(4)
        assert not is_independent_set(g, np.array([0, 1]))
        assert is_independent_set(g, np.array([0, 2]))

    def test_is_maximal_detects_extendable(self):
        g = cycle_graph(6)
        assert not is_maximal_independent_set(g, np.array([0]))
        assert is_maximal_independent_set(g, np.array([0, 2, 4]))


def two_step_reference(graph, *, seed=0, rounds=5, candidates=None):
    """``two_step_luby_mis`` one vertex at a time — the formulation the
    edge-mask implementation replaced, kept as its oracle.  Also returns
    how many rounds fell back to the smallest-key vertex."""
    n = graph.nvertices
    xadj, adjncy = graph.xadj, graph.adjncy
    rng = np.random.default_rng(seed)
    active = np.zeros(n, dtype=bool)
    if candidates is None:
        active[:] = True
    else:
        active[np.asarray(candidates, dtype=np.int64)] = True
    in_set = np.zeros(n, dtype=bool)
    fallbacks = 0
    for _ in range(max(0, rounds)):
        if not active.any():
            break
        keys = rng.random(n)
        tentative = np.zeros(n, dtype=bool)
        active_idx = np.flatnonzero(active)
        for v in active_idx:
            nbrs = adjncy[xadj[v] : xadj[v + 1]]
            nbrs = nbrs[active[nbrs]]
            if np.all((keys[nbrs] > keys[v]) | ((keys[nbrs] == keys[v]) & (nbrs > v))):
                tentative[v] = True
        conflicted = np.zeros(n, dtype=bool)
        for v in np.flatnonzero(tentative):
            nbrs = adjncy[xadj[v] : xadj[v + 1]]
            hits = nbrs[tentative[nbrs]]
            if hits.size:
                conflicted[v] = True
                conflicted[hits] = True
        accepted = tentative & ~conflicted
        if not accepted.any():
            fallbacks += 1
            accepted[active_idx[np.argmin(keys[active_idx])]] = True
        in_set |= accepted
        active[accepted] = False
        for v in np.flatnonzero(accepted):
            active[adjncy[xadj[v] : xadj[v + 1]]] = False
        for v in np.flatnonzero(active):
            if np.any(in_set[adjncy[xadj[v] : xadj[v + 1]]]):
                active[v] = False
    return np.flatnonzero(in_set), fallbacks


def random_directed_graph(rng, n, max_degree, *, self_loops):
    """Random directed adjacency; some vertices stay isolated."""
    src, dst = [], []
    for v in range(n):
        if rng.random() < 0.15:
            continue
        nbrs = rng.choice(n, size=rng.integers(0, max_degree + 1), replace=False)
        if not self_loops:
            nbrs = nbrs[nbrs != v]
        src += [v] * nbrs.size
        dst += nbrs.tolist()
    return Graph.from_edges(n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))


class TestTwoStepAgainstPerVertexReference:
    @pytest.mark.parametrize("self_loops", [False, True])
    @pytest.mark.parametrize("trial", range(12))
    def test_random_directed_graphs(self, trial, self_loops):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(1, 40))
        g = random_directed_graph(rng, n, int(rng.integers(1, 6)), self_loops=self_loops)
        subset = np.flatnonzero(rng.random(n) < 0.6)
        for seed in range(4):
            for rounds in (0, 1, 2, 5, 30):
                for candidates in (None, subset):
                    want, _ = two_step_reference(
                        g, seed=seed, rounds=rounds, candidates=candidates
                    )
                    got = two_step_luby_mis(g, seed=seed, rounds=rounds, candidates=candidates)
                    assert np.array_equal(got, want), (seed, rounds, candidates)

    def test_no_winner_round_falls_back_to_the_smallest_key(self):
        # 0 -> 1 only: when key0 < key1 both are tentative, clash, and the
        # round is saved by the fallback; otherwise 1 wins outright
        g = directed_edge_graph()
        seen = set()
        for seed in range(8):
            want, fallbacks = two_step_reference(g, seed=seed, rounds=1)
            assert np.array_equal(two_step_luby_mis(g, seed=seed, rounds=1), want)
            seen.add(fallbacks)
        assert seen == {0, 1}

    def test_reduced_matrix_structures(self):
        # the graphs the engine actually builds: dense-ish directed rows
        rng = np.random.default_rng(7)
        for trial in range(5):
            g = random_directed_graph(rng, 120, 14, self_loops=False)
            want, _ = two_step_reference(g, seed=1000 * (trial + 1), rounds=5)
            assert np.array_equal(two_step_luby_mis(g, seed=1000 * (trial + 1), rounds=5), want)
