"""Incomplete-factorization result container.

All factorization routines in :mod:`repro.ilu` produce an
:class:`ILUFactors`: unit-lower L (strict lower triangle stored, unit
diagonal implicit) and upper U (diagonal stored first in each row's
column range), both expressed in the **elimination ordering**, plus the
permutation back to original indices and — for parallel factorizations —
the level structure that the parallel triangular solves replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels.triangular import cached_schedules
from ..sparse import CSRMatrix, count_triangular_flops

__all__ = ["ILUFactors", "LevelStructure"]


@dataclass
class LevelStructure:
    """Elimination-order structure imposed by the parallel factorization.

    Positions refer to the permuted ordering.

    Attributes
    ----------
    interior_ranges:
        ``[(start, end), ...]`` — one contiguous position range of
        interior rows per rank (phase 1; mutually independent blocks).
    interface_levels:
        ``[positions, ...]`` — one position array per independent set
        ``I_l`` (phase 2), in elimination order.
    owner:
        Owning rank of each permuted position.
    """

    interior_ranges: list[tuple[int, int]]
    interface_levels: list[np.ndarray]
    owner: np.ndarray

    @property
    def num_levels(self) -> int:
        """The paper's ``q`` — the number of independent sets."""
        return len(self.interface_levels)

    def level_sizes(self) -> list[int]:
        return [int(lvl.size) for lvl in self.interface_levels]

    def validate(self, n: int) -> None:
        """Check the structure tiles [0, n) exactly once."""
        seen = np.zeros(n, dtype=np.int64)
        for s, e in self.interior_ranges:
            if not (0 <= s <= e <= n):
                raise ValueError(f"bad interior range ({s}, {e})")
            seen[s:e] += 1
        for lvl in self.interface_levels:
            seen[lvl] += 1
        if not np.all(seen == 1):
            raise ValueError("level structure does not tile the matrix exactly once")


@dataclass
class ILUFactors:
    """An incomplete LU factorization ``A ≈ P^T (I+L) U P``.

    ``L`` holds the strict lower triangle (unit diagonal implicit), ``U``
    the upper triangle including the diagonal; both live in the permuted
    (elimination) ordering.  ``perm[k]`` is the original index eliminated
    at position ``k``.
    """

    L: CSRMatrix
    U: CSRMatrix
    perm: np.ndarray
    levels: LevelStructure | None = None
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.L.shape[0]
        if self.L.shape != (n, n) or self.U.shape != (n, n):
            raise ValueError("L and U must be square and same size")
        if self.perm.shape != (n,):
            raise ValueError("perm must cover every row")

    @property
    def n(self) -> int:
        return self.L.shape[0]

    @property
    def nnz(self) -> int:
        """Total stored entries (L strict + U incl. diagonal)."""
        return self.L.nnz + self.U.nnz

    def fill_factor(self, A: CSRMatrix) -> float:
        """nnz(L+U) / nnz(A) — the classic fill measure."""
        return self.nnz / max(A.nnz, 1)

    # ------------------------------------------------------------------

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply the preconditioner: return ``M^{-1} b`` in original order.

        Runs on the level schedules cached per factors object
        (:func:`repro.kernels.triangular.cached_schedules`), each row
        summed left to right from ``0.0``: the bits of the §5 parallel
        apply on every transport.  The cache is keyed by the object, so
        factors edited in place after a solve need
        :func:`~repro.kernels.triangular.clear_schedule_cache`.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise ValueError(f"b has shape {b.shape}, expected ({self.n},)")
        fwd, bwd = cached_schedules(self)
        z = bwd.solve(fwd.solve(b[self.perm]))
        out = np.empty_like(z)
        out[self.perm] = z
        return out

    def residual_matrix(self, A: CSRMatrix) -> CSRMatrix:
        """``(I+L) @ U - P A P^T`` in the permuted ordering (exactness check)."""
        n = self.n
        IL = CSRMatrix.identity(n) + self.L
        prod = IL.matmat(self.U)
        Ap = A.permute(self.perm, self.perm)
        return prod - Ap

    def triangular_flops(self) -> int:
        """Flops of one preconditioner application."""
        return count_triangular_flops(self.L, self.U)

    def __repr__(self) -> str:
        q = self.levels.num_levels if self.levels is not None else None
        return (
            f"ILUFactors(n={self.n}, nnz(L)={self.L.nnz}, nnz(U)={self.U.nnz}"
            + (f", levels={q}" if q is not None else "")
            + ")"
        )
