"""Maximal independent set computation (Luby's algorithm).

The paper (§4.1) extracts concurrency in the interface factorization by
repeatedly computing maximal independent sets of the reduced matrices
with a parallel formulation of Luby's algorithm, with two twists:

1. only **five augmentation rounds** are performed — most independent
   vertices are found in the first few rounds, and capping the rounds
   bounds the synchronisation cost without significantly shrinking the
   set;
2. because the reduced matrices are **not structurally symmetric**, a
   vertex can win against a neighbour that does not see it back.  The
   fix is a *two-step* insert: first tentatively insert every local
   winner, then (after a barrier) remove any tentative vertex adjacent
   to another tentative vertex.

Both the plain serial algorithm and the paper's capped two-step variant
are provided; the distributed driver in :mod:`repro.ilu.parallel` runs
the same logic superstep-by-superstep on the machine simulator.
"""

from __future__ import annotations

import numpy as np

from .structure import Graph

__all__ = [
    "luby_mis",
    "two_step_luby_mis",
    "greedy_mis",
    "is_independent_set",
    "is_maximal_independent_set",
]


def _neighbor_lists(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    return graph.xadj, graph.adjncy


def luby_mis(
    graph: Graph,
    *,
    seed: int = 0,
    max_rounds: int | None = None,
    candidates: np.ndarray | None = None,
) -> np.ndarray:
    """Classic Luby MIS on an undirected graph.

    A vertex joins the set in a round if its random key is strictly
    smaller than every *active* neighbour's key (ties broken by vertex
    id, so the algorithm is deterministic for a given seed).  Returns the
    sorted vertex array of the independent set.

    ``max_rounds=None`` iterates to maximality; the paper's variant caps
    at 5 rounds (see :func:`two_step_luby_mis`).
    ``candidates`` restricts the ground set to a subset of vertices.
    """
    n = graph.nvertices
    xadj, adjncy = _neighbor_lists(graph)
    rng = np.random.default_rng(seed)
    active = np.zeros(n, dtype=bool)
    if candidates is None:
        active[:] = True
    else:
        active[np.asarray(candidates, dtype=np.int64)] = True
    in_set = np.zeros(n, dtype=bool)
    rounds = 0
    while active.any():
        if max_rounds is not None and rounds >= max_rounds:
            break
        rounds += 1
        keys = rng.random(n)
        winners: list[int] = []
        active_idx = np.flatnonzero(active)
        for v in active_idx:
            nbrs = adjncy[xadj[v] : xadj[v + 1]]
            nbrs = nbrs[active[nbrs]]
            if nbrs.size == 0:
                winners.append(int(v))
                continue
            kv = keys[v]
            nk = keys[nbrs]
            better = np.all((nk > kv) | ((nk == kv) & (nbrs > v)))
            if better:
                winners.append(int(v))
        if not winners:
            continue
        w = np.asarray(winners, dtype=np.int64)
        in_set[w] = True
        active[w] = False
        for v in w:
            nbrs = adjncy[xadj[v] : xadj[v + 1]]
            active[nbrs] = False
    return np.flatnonzero(in_set)


def two_step_luby_mis(
    graph: Graph,
    *,
    seed: int = 0,
    rounds: int = 5,
    candidates: np.ndarray | None = None,
) -> np.ndarray:
    """The paper's capped two-step Luby variant (§4.1).

    Step 1 of each round tentatively inserts every vertex whose key beats
    all active neighbours it *sees*; step 2 removes any tentative vertex
    adjacent to another tentative vertex.  On a structurally symmetric
    graph step 2 never fires and this reduces to :func:`luby_mis`; on the
    directed structure of an ILUT reduced matrix it is what guarantees
    independence.  The graph passed here should contain every directed
    edge of the reduced matrix (both (u,v) and (v,u) directions may or
    may not be present — that is the point).

    The result may be non-maximal because of the round cap; that only
    costs extra outer iterations in the factorization, never correctness.
    """
    n = graph.nvertices
    xadj, dst = _neighbor_lists(graph)
    # every stored directed edge once, as parallel (src, dst) arrays: each
    # per-vertex scan of the algorithm is a mask over them
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(xadj))
    rng = np.random.default_rng(seed)
    active = np.zeros(n, dtype=bool)
    if candidates is None:
        active[:] = True
    else:
        active[np.asarray(candidates, dtype=np.int64)] = True
    in_set = np.zeros(n, dtype=bool)
    for _ in range(max(0, rounds)):
        if not active.any():
            break
        keys = rng.random(n)
        # step 1: local winners (only the edges each vertex sees) — a vertex
        # loses to an active neighbour with a smaller key, ties by vertex id
        seen = active[src] & active[dst]
        s, d = src[seen], dst[seen]
        beaten = (keys[d] < keys[s]) | ((keys[d] == keys[s]) & (d <= s))
        tentative = active.copy()
        tentative[s[beaten]] = False
        # barrier; step 2: drop tentative vertices adjacent to tentative ones.
        # A directed edge (v, u) conflicts both v and u — the removal must be
        # symmetric, otherwise u (which never saw v) could survive while v is
        # dropped and u--v are dependent.
        clash = tentative[src] & tentative[dst]
        accepted = tentative.copy()
        accepted[src[clash]] = False
        accepted[dst[clash]] = False
        if not accepted.any():
            # Guarantee progress: accept the globally smallest-key active
            # vertex (a singleton is always independent).
            active_idx = np.flatnonzero(active)
            accepted[active_idx[np.argmin(keys[active_idx])]] = True
        in_set |= accepted
        active[accepted] = False
        active[dst[accepted[src]]] = False
        # Also deactivate vertices that point *to* an accepted vertex via a
        # one-directional edge (the accepted vertex never saw them): if v
        # with edge v->u stayed active after u joined the set, v could join
        # in a later round and violate independence.
        active[src[in_set[dst]]] = False
    return np.flatnonzero(in_set)


def greedy_mis(graph: Graph, *, order: np.ndarray | None = None) -> np.ndarray:
    """Deterministic greedy MIS (baseline / oracle for tests)."""
    n = graph.nvertices
    xadj, adjncy = _neighbor_lists(graph)
    blocked = np.zeros(n, dtype=bool)
    in_set = np.zeros(n, dtype=bool)
    sequence = np.arange(n) if order is None else np.asarray(order, dtype=np.int64)
    for v in sequence:
        if blocked[v]:
            continue
        in_set[v] = True
        blocked[v] = True
        blocked[adjncy[xadj[v] : xadj[v + 1]]] = True
    return np.flatnonzero(in_set)


def is_independent_set(graph: Graph, vertices: np.ndarray) -> bool:
    """True iff no stored edge connects two vertices of the set."""
    mask = np.zeros(graph.nvertices, dtype=bool)
    mask[np.asarray(vertices, dtype=np.int64)] = True
    for v in np.flatnonzero(mask):
        nbrs = graph.adjncy[graph.xadj[v] : graph.xadj[v + 1]]
        if np.any(mask[nbrs] & (nbrs != v)):
            return False
    return True


def is_maximal_independent_set(graph: Graph, vertices: np.ndarray) -> bool:
    """True iff the set is independent and no vertex can be added."""
    if not is_independent_set(graph, vertices):
        return False
    mask = np.zeros(graph.nvertices, dtype=bool)
    mask[np.asarray(vertices, dtype=np.int64)] = True
    for v in range(graph.nvertices):
        if mask[v]:
            continue
        nbrs = graph.adjncy[graph.xadj[v] : graph.xadj[v + 1]]
        if not np.any(mask[nbrs]):
            return False
    return True
