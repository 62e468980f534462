"""Level-scheduled application of triangular factors.

:meth:`ILUFactors.solve <repro.ilu.factors.ILUFactors.solve>` analyses
the dependency levels of L and U once per factors object (the classic
level-scheduling technique — the serial counterpart of the paper's §5
parallel solves; the schedules live in :mod:`repro.kernels.triangular`)
and then applies ``M^{-1}`` as a handful of array operations per level.
:class:`LevelScheduledApplier` binds one factors object and reports its
level counts.

For factors produced by the parallel algorithm the level count is small
(p interior chains + q interface levels), so repeated preconditioner
applications inside GMRES are cheap.  For naturally-ordered banded
factors the levels degenerate to chains and the gain disappears — which
is, not coincidentally, the reason the paper reorders with independent
sets.
"""

from __future__ import annotations

import numpy as np

from ..kernels.triangular import cached_schedules, triangular_levels

__all__ = ["LevelScheduledApplier", "triangular_levels"]


class LevelScheduledApplier:
    """Repeated application of ``M^{-1} = ((I+L) U)^{-1}``.

    Build once from an :class:`~repro.ilu.factors.ILUFactors`; each
    :meth:`apply` is ``factors.solve``: the permuted forward+backward
    solve as one gather / ``np.bincount`` / scatter per dependency level
    (see :class:`repro.kernels.triangular.BatchedTriangularSchedule`).
    Every row is summed left to right from ``0.0`` in stored order — the
    order the §5 parallel apply
    (:func:`repro.ilu.triangular.parallel_triangular_solve`) uses on
    every transport — so the two agree bit for bit.
    """

    def __init__(self, factors) -> None:
        self.factors = factors
        self._fwd, self._bwd = cached_schedules(factors)

    def apply(self, b: np.ndarray) -> np.ndarray:
        return self.factors.solve(b)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self.apply(b)

    @property
    def forward_levels(self) -> int:
        return self._fwd.num_levels

    @property
    def backward_levels(self) -> int:
        return self._bwd.num_levels
