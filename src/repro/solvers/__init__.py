"""Iterative solver: restarted GMRES (the paper's one solver),
preconditioner interfaces, distributed matvec, the one-stop
``parallel_solve`` driver and modelled parallel solve times."""

from .driver import ParallelSolveReport, parallel_solve
from .gmres import GMRESResult, gmres
from .modeled import model_diagonal_precond_time, model_gmres_time
from .parallel_matvec import MatvecResult, parallel_matvec
from .preconditioners import (
    DiagonalPreconditioner,
    IdentityPreconditioner,
    ILU0Preconditioner,
    ILUPreconditioner,
    Preconditioner,
    prepare_preconditioner,
)
from .result import SolveResult

__all__ = [
    "SolveResult",
    "gmres",
    "GMRESResult",
    "prepare_preconditioner",
    "parallel_solve",
    "ParallelSolveReport",
    "parallel_matvec",
    "MatvecResult",
    "Preconditioner",
    "IdentityPreconditioner",
    "DiagonalPreconditioner",
    "ILUPreconditioner",
    "ILU0Preconditioner",
    "model_gmres_time",
    "model_diagonal_precond_time",
]
