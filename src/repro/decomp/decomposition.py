"""Domain decomposition: mapping rows to processors.

Implements the setup stage of the paper's parallel framework (§3):

* partition the matrix graph into ``p`` domains (multilevel k-way by
  default; block/random baselines for ablations),
* classify each row as **interior** (all structural neighbours in the
  same domain) or **interface** (coupled to another domain),
* build the communication plans (halo exchange) used by the distributed
  matvec and the interface factorization.

The partitioner minimises the edge-cut, which directly minimises the
number of interface rows — the serial bottleneck of phase 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph import Graph, adjacency_from_matrix
from ..partition import block_partition, boundary_mask, partition_matrix_kway, random_partition
from ..sparse import CSRMatrix

__all__ = ["DomainDecomposition", "decompose"]


@dataclass
class DomainDecomposition:
    """Assignment of matrix rows to ``nranks`` processors.

    Attributes
    ----------
    A:
        The (square) matrix being decomposed.
    nranks:
        Number of processors.
    part:
        Owning rank of each row.
    is_interface:
        Boolean mask; true where the row couples to another domain.
    graph:
        Symmetrised adjacency used for the classification.
    """

    A: CSRMatrix
    nranks: int
    part: np.ndarray
    is_interface: np.ndarray
    graph: Graph
    _interior: list[np.ndarray] = field(default_factory=list, repr=False)
    _interface: list[np.ndarray] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        n = self.A.shape[0]
        if self.part.shape != (n,):
            raise ValueError("part must assign every row")
        if self.part.size and (self.part.min() < 0 or self.part.max() >= self.nranks):
            raise ValueError("part ids out of range")
        self._interior = [
            np.flatnonzero((self.part == r) & ~self.is_interface)
            for r in range(self.nranks)
        ]
        self._interface = [
            np.flatnonzero((self.part == r) & self.is_interface)
            for r in range(self.nranks)
        ]

    # ------------------------------------------------------------------

    def interior_rows(self, rank: int) -> np.ndarray:
        """Original indices of ``rank``'s interior rows (ascending)."""
        return self._interior[rank]

    def interface_rows(self, rank: int) -> np.ndarray:
        """Original indices of ``rank``'s interface rows (ascending)."""
        return self._interface[rank]

    def owned_rows(self, rank: int) -> np.ndarray:
        return np.flatnonzero(self.part == rank)

    @property
    def all_interface(self) -> np.ndarray:
        """All interface rows (ascending original index)."""
        return np.flatnonzero(self.is_interface)

    @property
    def n_interface(self) -> int:
        return int(self.is_interface.sum())

    @property
    def n_interior(self) -> int:
        return int(self.A.shape[0] - self.n_interface)

    def interface_fraction(self) -> float:
        n = self.A.shape[0]
        return self.n_interface / n if n else 0.0

    # ------------------------------------------------------------------
    # communication plans
    # ------------------------------------------------------------------

    def halo_plan(self) -> dict[tuple[int, int], np.ndarray]:
        """Matvec ghost-exchange plan.

        Returns ``{(src_rank, dst_rank): node_array}`` — the rows owned
        by ``src_rank`` whose values ``dst_rank`` needs because some row
        it owns references them.  Only off-diagonal (cross-domain) needs
        appear.
        """
        n = self.A.shape[0]
        plan: dict[tuple[int, int], set[int]] = {}
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.A.indptr))
        cols = self.A.indices
        cross = self.part[rows] != self.part[cols]
        for i, j in zip(rows[cross], cols[cross]):
            key = (int(self.part[j]), int(self.part[i]))
            plan.setdefault(key, set()).add(int(j))
        return {
            key: np.asarray(sorted(nodes), dtype=np.int64)
            for key, nodes in sorted(plan.items())
        }

    def boundary_nodes(self, rank: int) -> np.ndarray:
        """Rows of ``rank`` referenced by at least one other domain."""
        needed: set[int] = set()
        for (src, _dst), nodes in self.halo_plan().items():
            if src == rank:
                needed.update(int(v) for v in nodes)
        return np.asarray(sorted(needed), dtype=np.int64)

    def summary(self) -> str:
        sizes = [int((self.part == r).sum()) for r in range(self.nranks)]
        return (
            f"DomainDecomposition(p={self.nranks}, n={self.A.shape[0]}, "
            f"interface={self.n_interface} ({100 * self.interface_fraction():.1f}%), "
            f"part sizes min/max={min(sizes)}/{max(sizes)})"
        )


def decompose(
    A: CSRMatrix,
    nranks: int,
    *,
    method: str = "multilevel",
    seed: int = 0,
    max_imbalance: float = 1.05,
) -> DomainDecomposition:
    """Partition ``A`` onto ``nranks`` processors and classify rows.

    ``method`` is ``"multilevel"`` (default; the paper's choice),
    ``"block"`` (contiguous index blocks) or ``"random"`` — the latter
    two exist as ablation baselines showing why partition quality
    matters.
    """
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"decompose requires a square matrix, got {A.shape}")
    n = A.shape[0]
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if nranks > n:
        raise ValueError(f"cannot place {n} rows on {nranks} ranks")

    if method == "multilevel":
        part = partition_matrix_kway(
            A, nranks, seed=seed, max_imbalance=max_imbalance
        ).part
    elif method == "block":
        part = block_partition(n, nranks)
    elif method == "random":
        part = random_partition(n, nranks, seed=seed)
    else:
        raise ValueError(f"unknown decomposition method {method!r}")

    graph = adjacency_from_matrix(A, symmetric=True)
    is_interface = boundary_mask(graph, part)
    return DomainDecomposition(
        A=A, nranks=nranks, part=part, is_interface=is_interface, graph=graph
    )
