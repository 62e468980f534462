"""The partitioner's per-vertex kernels as they were before they moved
onto lists and whole-array boundary tests — kept as oracles.

Each function is the earlier ``repro.partition`` / ``repro.decomp``
code, numpy scalar by numpy scalar; ``test_scalar_parity.py`` requires
the library to return equal arrays on random graphs.
"""

import numpy as np

from repro.graph import Graph
from repro.sparse import CSRMatrix


def heavy_edge_matching(graph: Graph, *, seed: int = 0) -> np.ndarray:
    n = graph.nvertices
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    match = np.full(n, -1, dtype=np.int64)
    for v in order:
        if match[v] != -1:
            continue
        nbrs = graph.neighbors(v)
        wgts = graph.neighbor_weights(v)
        best = -1
        best_w = -np.inf
        for u, w in zip(nbrs, wgts):
            if u != v and match[u] == -1 and w > best_w:
                best, best_w = int(u), float(w)
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    return match


def collapse_matching(graph: Graph, match: np.ndarray) -> tuple[Graph, np.ndarray]:
    n = graph.nvertices
    cmap = np.full(n, -1, dtype=np.int64)
    nc = 0
    for v in range(n):
        if cmap[v] != -1:
            continue
        u = int(match[v])
        cmap[v] = nc
        if u != v and cmap[u] == -1:
            cmap[u] = nc
        nc += 1
    cvwgt = np.zeros(nc, dtype=np.float64)
    np.add.at(cvwgt, cmap, graph.vwgt)
    rows = np.repeat(cmap, np.diff(graph.xadj))
    cols = cmap[graph.adjncy]
    keep = rows != cols
    if np.any(keep):
        S = CSRMatrix.from_coo(rows[keep], cols[keep], graph.adjwgt[keep], (nc, nc))
        coarse = Graph(S.indptr, S.indices, S.data, cvwgt)
    else:
        coarse = Graph(
            np.zeros(nc + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            cvwgt,
        )
    return coarse, cmap


def refine_kway(
    graph: Graph,
    part: np.ndarray,
    nparts: int,
    *,
    max_imbalance: float = 1.05,
    passes: int = 4,
    seed: int = 0,
) -> np.ndarray:
    part = np.asarray(part, dtype=np.int64)
    n = graph.nvertices
    rng = np.random.default_rng(seed)
    weights = np.zeros(nparts, dtype=np.float64)
    np.add.at(weights, part, graph.vwgt)
    ideal = graph.total_vertex_weight() / max(nparts, 1)
    max_weight = max_imbalance * ideal

    for _ in range(passes):
        moved = 0
        boundary = [v for v in range(n) if is_boundary(graph, part, v)]
        if not boundary:
            break
        order = rng.permutation(len(boundary))
        for bi in order:
            v = boundary[bi]
            pv = part[v]
            nbrs = graph.neighbors(v)
            wgts = graph.neighbor_weights(v)
            conn: dict[int, float] = {}
            for u, w in zip(nbrs, wgts):
                conn[int(part[u])] = conn.get(int(part[u]), 0.0) + float(w)
            internal = conn.get(int(pv), 0.0)
            best_part, best_gain = -1, 0.0
            for q, c in conn.items():
                if q == pv:
                    continue
                if weights[q] + graph.vwgt[v] > max_weight:
                    continue
                if weights[pv] - graph.vwgt[v] <= 0 and nparts > 1:
                    continue
                gain = c - internal
                if gain > best_gain + 1e-12:
                    best_part, best_gain = q, gain
            if best_part >= 0:
                weights[pv] -= graph.vwgt[v]
                weights[best_part] += graph.vwgt[v]
                part[v] = best_part
                moved += 1
        if moved == 0:
            break
    return part


def is_boundary(graph: Graph, part: np.ndarray, v: int) -> bool:
    """Whether ``v`` has a neighbour in another part."""
    nbrs = graph.neighbors(v)
    return bool(nbrs.size and np.any(part[nbrs] != part[v]))


def boundary_mask(graph: Graph, part: np.ndarray) -> np.ndarray:
    """The per-vertex classification ``decompose`` and the §7 engine ran."""
    return np.array([is_boundary(graph, part, v) for v in range(graph.nvertices)], dtype=bool)

