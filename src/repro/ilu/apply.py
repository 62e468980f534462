"""Vectorised level-scheduled application of triangular factors.

The row-by-row triangular solves in :mod:`repro.sparse.ops` are the
reference kernels; this module provides a *fast* applier that analyses
the dependency levels of L and U once (the classic level-scheduling
technique — the serial counterpart of the paper's §5 parallel solves)
and then performs each application as a handful of vectorised
gather/scatter operations per level.  The schedules themselves live in
:mod:`repro.kernels.triangular` and are cached per factors object, so
building several appliers (or mixing the applier with the parallel
solve driver) pays the level analysis once.

For factors produced by the parallel algorithm the level count is small
(p interior chains + q interface levels), so repeated preconditioner
applications inside GMRES become dramatically cheaper than the pure
Python row loop.  For naturally-ordered banded factors the levels
degenerate to chains and the gain disappears — which is, not
coincidentally, the reason the paper reorders with independent sets.
"""

from __future__ import annotations

import numpy as np

from ..kernels.triangular import cached_schedules, triangular_levels

__all__ = ["LevelScheduledApplier", "triangular_levels"]


class LevelScheduledApplier:
    """Fast repeated application of ``M^{-1} = ((I+L) U)^{-1}``.

    Build once from an :class:`~repro.ilu.factors.ILUFactors`; each
    :meth:`apply` performs the permuted forward+backward solve as one
    gather / ``np.bincount`` / scatter per dependency level (see
    :class:`repro.kernels.triangular.BatchedTriangularSchedule`).  Every
    row is summed left to right from ``0.0`` in stored order — the
    order the §5 parallel apply
    (:func:`repro.ilu.triangular.parallel_triangular_solve`) uses on
    every transport — so the two agree bit for bit.  ``factors.solve``
    (:mod:`repro.sparse.ops`, one ``np.dot`` per row) agrees to roundoff.
    """

    def __init__(self, factors) -> None:
        self.perm = factors.perm
        self._fwd, self._bwd = cached_schedules(factors)
        self.n = factors.n

    def apply(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise ValueError(f"b has shape {b.shape}, expected ({self.n},)")
        y = self._fwd.solve(b[self.perm])
        z = self._bwd.solve(y)
        out = np.empty_like(z)
        out[self.perm] = z
        return out

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self.apply(b)

    @property
    def forward_levels(self) -> int:
        return self._fwd.num_levels

    @property
    def backward_levels(self) -> int:
        return self._bwd.num_levels
