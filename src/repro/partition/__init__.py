"""Multilevel k-way graph partitioning (from scratch): heavy-edge
matching coarsening, greedy-growing initial partition, boundary
refinement, plus block/random baselines."""

from .initial import greedy_graph_growing, initial_kway
from .kway import (
    PartitionResult,
    block_partition,
    partition_graph_kway,
    partition_matrix_kway,
    random_partition,
)
from .matching import collapse_matching, heavy_edge_matching
from .nested_dissection import (
    nested_dissection,
    nested_dissection_matrix,
    vertex_separator_from_cut,
)
from .refine import boundary_mask, edge_cut, partition_balance, refine_kway

__all__ = [
    "PartitionResult",
    "partition_graph_kway",
    "partition_matrix_kway",
    "block_partition",
    "random_partition",
    "heavy_edge_matching",
    "collapse_matching",
    "greedy_graph_growing",
    "initial_kway",
    "refine_kway",
    "boundary_mask",
    "edge_cut",
    "partition_balance",
    "nested_dissection",
    "nested_dissection_matrix",
    "vertex_separator_from_cut",
]
