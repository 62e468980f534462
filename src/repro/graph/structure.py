"""Graph views of sparse matrices.

The partitioner, the MIS computation and the interior/interface
classification all operate on the *adjacency structure* of a matrix.
This module provides a light CSR-like adjacency container and the
structural symmetrisation used throughout the paper (the reduced
matrices of ILUT are not structurally symmetric — see §4.1).
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix

__all__ = ["Graph", "adjacency_from_matrix", "symmetrize_structure"]


class Graph:
    """Undirected (or directed) graph in CSR adjacency form.

    Attributes
    ----------
    xadj, adjncy:
        CSR-style adjacency: neighbours of vertex ``v`` are
        ``adjncy[xadj[v]:xadj[v+1]]``.
    adjwgt:
        Edge weights parallel to ``adjncy`` (1 if unweighted).
    vwgt:
        Vertex weights (1 if unweighted).
    """

    __slots__ = ("xadj", "adjncy", "adjwgt", "vwgt")

    def __init__(
        self,
        xadj: np.ndarray,
        adjncy: np.ndarray,
        adjwgt: np.ndarray | None = None,
        vwgt: np.ndarray | None = None,
    ) -> None:
        self.xadj = np.asarray(xadj, dtype=np.int64)
        self.adjncy = np.asarray(adjncy, dtype=np.int64)
        n = self.xadj.size - 1
        self.adjwgt = (
            np.ones(self.adjncy.size, dtype=np.float64)
            if adjwgt is None
            else np.asarray(adjwgt, dtype=np.float64)
        )
        self.vwgt = (
            np.ones(n, dtype=np.float64)
            if vwgt is None
            else np.asarray(vwgt, dtype=np.float64)
        )
        if self.adjwgt.size != self.adjncy.size:
            raise ValueError("adjwgt must parallel adjncy")
        if self.vwgt.size != n:
            raise ValueError("vwgt must have one weight per vertex")

    @classmethod
    def from_edges(cls, nvertices: int, src: np.ndarray, dst: np.ndarray) -> Graph:
        """Unweighted graph with one adjacency entry per directed edge
        ``src[e] -> dst[e]``; a vertex's neighbours keep the edges' order."""
        by_src = np.argsort(src, kind="stable")
        xadj = np.zeros(nvertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=nvertices), out=xadj[1:])
        return cls(xadj, dst[by_src])

    @property
    def nvertices(self) -> int:
        return int(self.xadj.size - 1)

    @property
    def nedges_directed(self) -> int:
        """Number of stored (directed) adjacency entries."""
        return int(self.adjncy.size)

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.adjwgt[self.xadj[v] : self.xadj[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.xadj[v + 1] - self.xadj[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.xadj)

    def total_vertex_weight(self) -> float:
        return float(self.vwgt.sum())

    def is_structurally_symmetric(self) -> bool:
        """Check that (u, v) stored implies (v, u) stored."""
        pairs = set()
        for v in range(self.nvertices):
            for u in self.neighbors(v):
                pairs.add((v, int(u)))
        return all((u, v) in pairs for (v, u) in pairs)

    def __repr__(self) -> str:
        return f"Graph(nvertices={self.nvertices}, nedges={self.nedges_directed // 2})"


def adjacency_from_matrix(
    A: CSRMatrix,
    *,
    symmetric: bool = True,
    include_weights: bool = False,
    drop_diagonal: bool = True,
) -> Graph:
    """Build the adjacency graph of a sparse matrix.

    With ``symmetric=True`` the structure is symmetrised (an edge exists
    if either ``a_ij`` or ``a_ji`` is stored) — required by the
    partitioner and by the two-step Luby MIS.  With
    ``include_weights=True`` edge weights are ``|a_ij| + |a_ji|``.
    """
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency requires a square matrix, got {A.shape}")
    n = A.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.indptr))
    cols = A.indices
    vals = np.abs(A.data)
    if drop_diagonal:
        off = rows != cols
        rows, cols, vals = rows[off], cols[off], vals[off]
    if symmetric:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        vals = np.concatenate([vals, vals])
    # dedupe via CSR summing (weights accumulate |a_ij|+|a_ji|)
    S = CSRMatrix.from_coo(rows, cols, np.maximum(vals, 1e-300), (n, n))
    return Graph(
        S.indptr,
        S.indices,
        S.data if include_weights else None,
    )


def symmetrize_structure(A: CSRMatrix) -> CSRMatrix:
    """Return ``A`` with pattern ``struct(A) ∪ struct(A.T)``.

    Added positions carry value zero; existing values are preserved.
    Used before MIS/partitioning on nonsymmetric reduced matrices.
    """
    n = A.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.indptr))
    mirror = CSRMatrix.from_coo(
        A.indices, rows, np.zeros(A.indices.size), (A.shape[1], A.shape[0])
    )
    return A + mirror
