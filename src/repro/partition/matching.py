"""Heavy-edge matching for multilevel coarsening.

The multilevel paradigm (Karypis & Kumar '96, used by this paper for the
initial domain decomposition) coarsens the graph by collapsing a maximal
matching.  *Heavy-edge* matching prefers the incident edge of largest
weight, which concentrates edge weight inside coarse vertices and keeps
the edge-cut of coarse partitions representative of fine ones.

The matching is a sequential greedy sweep, run over Python lists built
once per call; the collapse is array expressions.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph

__all__ = ["heavy_edge_matching", "collapse_matching"]


def heavy_edge_matching(graph: Graph, *, seed: int = 0) -> np.ndarray:
    """Compute a maximal matching preferring heavy edges.

    Returns ``match`` with ``match[v]`` = the vertex matched to ``v``
    (possibly ``v`` itself for unmatched vertices).  Visit order is a
    random permutation for coarsening quality; ties go to the heaviest
    incident unmatched edge.
    """
    n = graph.nvertices
    order = np.random.default_rng(seed).permutation(n).tolist()
    xadj, adjncy, adjwgt = graph.xadj.tolist(), graph.adjncy.tolist(), graph.adjwgt.tolist()
    match = [-1] * n
    for v in order:
        if match[v] != -1:
            continue
        best, best_w = -1, float("-inf")
        for k in range(xadj[v], xadj[v + 1]):
            u = adjncy[k]
            if u != v and match[u] == -1 and adjwgt[k] > best_w:
                best, best_w = u, adjwgt[k]
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    return np.asarray(match, dtype=np.int64)


def collapse_matching(graph: Graph, match: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Build the coarse graph induced by a matching.

    Returns ``(coarse_graph, cmap)`` where ``cmap[v]`` is the coarse
    vertex containing fine vertex ``v``.  Coarse vertex weights are the
    sums of their constituents; parallel coarse edges are merged with
    summed weights and self-loops (internal matched edges) are dropped.
    """
    # a coarse vertex is numbered at its smallest constituent, in
    # ascending order (``match`` is symmetric: a pair names each other)
    vertices = np.arange(graph.nvertices, dtype=np.int64)
    rep = np.minimum(vertices, match)
    is_rep = rep == vertices
    nc = int(np.count_nonzero(is_rep))
    cmap = (np.cumsum(is_rep) - 1)[rep]
    # coarse vertex weights
    cvwgt = np.zeros(nc, dtype=np.float64)
    np.add.at(cvwgt, cmap, graph.vwgt)
    # coarse edges: map endpoints, merge duplicates by CSR summation
    from ..sparse import CSRMatrix

    rows = np.repeat(cmap, np.diff(graph.xadj))
    cols = cmap[graph.adjncy]
    keep = rows != cols
    if np.any(keep):
        S = CSRMatrix.from_coo(
            rows[keep], cols[keep], graph.adjwgt[keep], (nc, nc)
        )
        coarse = Graph(S.indptr, S.indices, S.data, cvwgt)
    else:
        coarse = Graph(
            np.zeros(nc + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            cvwgt,
        )
    return coarse, cmap
