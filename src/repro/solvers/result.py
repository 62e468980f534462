"""Result type of the iterative solve.

:class:`SolveResult` holds what any iterative solve reports —
``converged`` / ``iterations`` / ``residual_history`` / ``elapsed`` —
and :class:`GMRESResult`, what restarted GMRES returns, adds the paper's
NMV counter and the breakdown flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..resilience import FailureReport

__all__ = [
    "SolveResult",
    "GMRESResult",
]


@dataclass
class SolveResult:
    """Outcome of an iterative linear solve.

    Attributes
    ----------
    x:
        The computed solution.
    converged:
        Whether the stopping criterion was met.
    iterations:
        Iteration count (inner iterations across restarts for GMRES).
    final_residual:
        ``||b - A x||`` recomputed explicitly at exit.
    residual_norms:
        Residual norm per iteration, including the initial one (the
        *preconditioned* norm where the method iterates on it).
    elapsed:
        Wall-clock seconds spent inside the solver.
    failure_report:
        The :class:`~repro.resilience.FailureReport` of the
        preconditioner's fallback/retry history when one was attached
        (``None`` means nothing broke down — or nothing was tracked).
    """

    x: np.ndarray
    converged: bool
    iterations: int
    final_residual: float
    residual_norms: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    failure_report: FailureReport | None = None

    @property
    def residual_history(self) -> list[float]:
        """Alias for :attr:`residual_norms`."""
        return self.residual_norms


@dataclass
class GMRESResult(SolveResult):
    """Restarted-GMRES outcome; adds the paper's NMV counter.

    ``breakdown`` flags a (near-)lucky breakdown of the Arnoldi process:
    either ``H[j+1, j]`` collapsed below the representable floor (happy
    breakdown — the Krylov space became invariant) or the exit
    verification demoted a converged flag because the recursive residual
    disagreed with the true one (near-lucky breakdown on an
    inconsistent/singular preconditioned system).
    """

    num_matvec: int = 0
    num_precond: int = 0
    breakdown: bool = False
