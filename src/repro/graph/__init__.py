"""Graph substrate: adjacency structure, colouring and maximal
independent sets (Luby's algorithm with the paper's two-step variant)."""

from .coloring import color_classes, greedy_coloring, is_proper_coloring
from .mis import (
    greedy_mis,
    is_independent_set,
    is_maximal_independent_set,
    luby_mis,
    two_step_luby_mis,
    two_step_luby_mis_edges,
)
from .structure import Graph, adjacency_from_matrix, symmetrize_structure
from .rcm import bandwidth, rcm_ordering, rcm_ordering_matrix
from .traversal import bfs_levels, connected_components, pseudo_peripheral_vertex

__all__ = [
    "Graph",
    "adjacency_from_matrix",
    "symmetrize_structure",
    "bfs_levels",
    "connected_components",
    "pseudo_peripheral_vertex",
    "rcm_ordering",
    "rcm_ordering_matrix",
    "bandwidth",
    "greedy_coloring",
    "color_classes",
    "is_proper_coloring",
    "luby_mis",
    "two_step_luby_mis",
    "two_step_luby_mis_edges",
    "greedy_mis",
    "is_independent_set",
    "is_maximal_independent_set",
]
