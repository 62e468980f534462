"""Distributed two-step Luby MIS on the machine simulator (paper §4.1).

The parallel formulation the paper describes: vertices are distributed
across processors by a partition; each round every processor draws the
(globally replicated, seed-deterministic) random keys, decides local
winners from the keys of its own and *ghost* neighbour vertices,
exchanges tentative flags for boundary vertices, and applies the
two-step removal after a barrier.

The implementation executes the exact state machine of
:func:`repro.graph.mis.two_step_luby_mis` — the returned set is
identical for the same seed/rounds — while charging the simulator:

* a communication **setup phase** classifying boundary vs internal
  vertices (the paper §4.1 describes precisely this),
* per round: per-rank key/flag scans over the active adjacency, one
  aggregated boundary message per neighbouring rank pair in each of the
  two steps, and the two barrier synchronisations.
"""

from __future__ import annotations

import numpy as np

from ..machine import Simulator
from .mis import two_step_luby_mis
from .structure import Graph

__all__ = ["distributed_two_step_luby_mis", "mis_comm_setup"]


def _boundary_sets(graph: Graph, part: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """``{(src, dst): vertices}`` — ``src``'s vertices whose key/flag some
    vertex of ``dst`` reads (i.e. boundary vertices shipped each round)."""
    boundary: dict[tuple[int, int], set[int]] = {}
    for v in range(graph.nvertices):
        pv = int(part[v])
        for u in graph.neighbors(v):
            pu = int(part[u])
            if pu != pv:
                # v reads u's key -> u's owner must send u to v's owner
                boundary.setdefault((pu, pv), set()).add(int(u))
    return {
        key: np.asarray(sorted(vs), dtype=np.int64)
        for key, vs in sorted(boundary.items())
    }


def mis_comm_setup(
    graph: Graph, part: np.ndarray, sim: Simulator | None = None
) -> dict[tuple[int, int], int]:
    """Pre-compute the boundary-exchange pattern (the paper's setup phase).

    Returns ``{(src, dst): count}`` — how many of ``src``'s vertices have
    an edge seen by ``dst``'s vertices (i.e. must ship their key/flag to
    ``dst`` each round).  Charges the setup scan to the simulator.
    """
    part = np.asarray(part, dtype=np.int64)
    sets = _boundary_sets(graph, part)
    if sim is not None:
        # one scan over all adjacency entries, split across owners
        per_rank = np.zeros(sim.nranks)
        rows = np.repeat(part, np.diff(graph.xadj))
        np.add.at(per_rank, rows, 1.0)
        for r in range(sim.nranks):
            sim.compute(r, float(per_rank[r]))
        sim.barrier()
    return {key: int(vs.size) for key, vs in sorted(sets.items())}


def distributed_two_step_luby_mis(
    graph: Graph,
    part: np.ndarray,
    sim: Simulator,
    *,
    seed: int = 0,
    rounds: int = 5,
    candidates: np.ndarray | None = None,
) -> np.ndarray:
    """Two-step Luby MIS distributed over ``sim``'s ranks by ``part``.

    Identical output to :func:`~repro.graph.mis.two_step_luby_mis` with
    the same ``seed``/``rounds``/``candidates`` (keys are seed-replicated
    on every rank, the standard trick that removes the key exchange);
    the simulator is charged the per-round scans, boundary flag
    exchanges and the two barriers of the insert/remove protocol.
    """
    part = np.asarray(part, dtype=np.int64)
    if part.shape != (graph.nvertices,):
        raise ValueError("part must assign every vertex")
    if part.size and int(part.max()) >= sim.nranks:
        raise ValueError("part references a rank outside the simulator")

    pattern = mis_comm_setup(graph, part, sim)
    tr = getattr(sim, "tracer", None)
    bsets = _boundary_sets(graph, part) if tr is not None else {}

    # cost accounting per round: two scan+exchange+barrier steps
    degrees = np.diff(graph.xadj)
    per_rank_edges = np.zeros(sim.nranks)
    np.add.at(per_rank_edges, part, degrees.astype(np.float64))
    for rnd in range(max(0, rounds)):
        for step in ("insert", "remove"):
            for r in range(sim.nranks):
                sim.compute(r, float(per_rank_edges[r]))
            if tr is not None:
                # each owner updates its boundary flags before shipping them
                for (src, _dst), verts in sorted(bsets.items()):
                    for v in verts:
                        tr.write(src, "mis-flag", int(v))
            sim.exchange(
                [(src, dst, None, float(count)) for (src, dst), count in sorted(pattern.items())],
                tag=("mis", rnd, step),
            )
            if tr is not None:
                # receivers consume the shipped flags of their ghosts
                for (_src, dst), verts in sorted(bsets.items()):
                    for v in verts:
                        tr.read(dst, "mis-flag", int(v))
            sim.barrier()

    # the numerics: the exact serial state machine (keys are globally
    # replicated from the seed, so every rank computes the same result)
    return two_step_luby_mis(graph, seed=seed, rounds=rounds, candidates=candidates)
