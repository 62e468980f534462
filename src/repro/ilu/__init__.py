"""Incomplete LU factorizations — the paper's core contribution.

Sequential ILUT(m,t), ILU(0), ILU(k) baselines; the two-phase parallel
ILUT and ILUT*(m,t,k) on the machine simulator; level-scheduled parallel
triangular solves; and the §7 partition-based interface factorization.
"""

from .elimination import EliminationEngine, EliminationOutcome
from .factors import ILUFactors, LevelStructure
from .ilu0 import ilu0
from .iluk import iluk, iluk_symbolic
from .ilum import ilum
from .ilut import ilut
from .block_jacobi import BlockJacobiILU, block_jacobi_ilut
from .interface_partition import InterfacePartitionEngine, parallel_ilut_partitioned
from .parallel import ParallelILUResult, parallel_ilut, parallel_ilut_star
from .parallel_ilu0 import parallel_ilu0
from .params import ILUTParams
from .triangular import TriangularSolveResult, parallel_triangular_solve

__all__ = [
    "ILUTParams",
    "ilut",
    "ilu0",
    "iluk",
    "ilum",
    "parallel_ilu0",
    "block_jacobi_ilut",
    "BlockJacobiILU",
    "iluk_symbolic",
    "ILUFactors",
    "LevelStructure",
    "parallel_ilut",
    "parallel_ilut_star",
    "ParallelILUResult",
    "parallel_triangular_solve",
    "TriangularSolveResult",
    "parallel_ilut_partitioned",
    "InterfacePartitionEngine",
    "EliminationEngine",
    "EliminationOutcome",
]
