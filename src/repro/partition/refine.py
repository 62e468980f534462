"""Greedy k-way boundary refinement (KL/FM style).

After projecting a coarse partition to a finer graph, boundary vertices
are swept in random order; each is moved to the neighbouring part with
the largest positive gain (reduction in edge-cut), subject to a balance
constraint.  A few passes of this simple refinement recover most of the
quality of full Kernighan-Lin at a fraction of the cost — the same
trade the multilevel k-way algorithm makes.

A pass takes its boundary from one array test (:func:`boundary_mask`)
and sweeps it over Python lists built once per call, in the visit order,
summation order and tie-breaks of the per-vertex loop kept as the oracle
in ``tests/partition/_scalar.py`` — same seed, same parts.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph

__all__ = ["boundary_mask", "edge_cut", "partition_balance", "refine_kway"]


def edge_cut(graph: Graph, part: np.ndarray) -> float:
    """Total weight of edges whose endpoints lie in different parts."""
    part = np.asarray(part, dtype=np.int64)
    rows = np.repeat(np.arange(graph.nvertices, dtype=np.int64), np.diff(graph.xadj))
    cut = graph.adjwgt[part[rows] != part[graph.adjncy]].sum()
    return float(cut) / 2.0  # each undirected edge stored twice


def boundary_mask(graph: Graph, part: np.ndarray) -> np.ndarray:
    """Cut vertices: true where a vertex has a neighbour in another part."""
    part = np.asarray(part, dtype=np.int64)
    rows = np.repeat(np.arange(graph.nvertices, dtype=np.int64), np.diff(graph.xadj))
    mask = np.zeros(graph.nvertices, dtype=bool)
    mask[rows[part[rows] != part[graph.adjncy]]] = True
    return mask


def partition_balance(graph: Graph, part: np.ndarray, nparts: int) -> float:
    """Load imbalance: max part weight / ideal part weight (>= 1)."""
    weights = np.zeros(nparts, dtype=np.float64)
    np.add.at(weights, np.asarray(part, dtype=np.int64), graph.vwgt)
    ideal = graph.total_vertex_weight() / nparts
    if ideal == 0:
        return 1.0
    return float(weights.max() / ideal)


def refine_kway(
    graph: Graph,
    part: np.ndarray,
    nparts: int,
    *,
    max_imbalance: float = 1.05,
    passes: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """In-place greedy refinement; returns the (modified) part array."""
    part = np.asarray(part, dtype=np.int64)
    rng = np.random.default_rng(seed)
    weights = np.zeros(nparts, dtype=np.float64)
    np.add.at(weights, part, graph.vwgt)
    ideal = graph.total_vertex_weight() / max(nparts, 1)
    max_weight = max_imbalance * ideal
    weights = weights.tolist()
    xadj, adjncy = graph.xadj.tolist(), graph.adjncy.tolist()
    adjwgt, vwgt = graph.adjwgt.tolist(), graph.vwgt.tolist()
    where = part.tolist()

    for _ in range(passes):
        moved = 0
        boundary = np.flatnonzero(boundary_mask(graph, part)).tolist()
        if not boundary:
            break
        for bi in rng.permutation(len(boundary)).tolist():
            v = boundary[bi]
            pv, wv = where[v], vwgt[v]
            # connectivity to each adjacent part, in neighbour order
            conn: dict[int, float] = {}
            for k in range(xadj[v], xadj[v + 1]):
                q = where[adjncy[k]]
                conn[q] = conn.get(q, 0.0) + adjwgt[k]
            internal = conn.get(pv, 0.0)
            best_part, best_gain = -1, 0.0
            for q, c in conn.items():
                if q == pv:
                    continue
                if weights[q] + wv > max_weight:
                    continue
                # don't empty a part entirely
                if weights[pv] - wv <= 0 and nparts > 1:
                    continue
                gain = c - internal
                if gain > best_gain + 1e-12:
                    best_part, best_gain = q, gain
            if best_part >= 0:
                weights[pv] -= wv
                weights[best_part] += wv
                where[v] = best_part
                moved += 1
        part[:] = where
        if moved == 0:
            break
    return part
