"""repro — Parallel Threshold-based ILU Factorization (Karypis & Kumar, SC'97).

A from-scratch Python reproduction of the paper's system:

* :mod:`repro.sparse` — CSR sparse-matrix substrate,
* :mod:`repro.graph` — adjacency, colouring, Luby MIS (two-step variant),
* :mod:`repro.partition` — multilevel k-way graph partitioning,
* :mod:`repro.machine` — distributed-memory machine simulator + cost model,
* :mod:`repro.decomp` — domain decomposition (interior/interface),
* :mod:`repro.ilu` — ILUT, ILUT*, ILU(0), ILU(k), parallel factorization
  and level-scheduled triangular solves,
* :mod:`repro.solvers` — restarted GMRES, preconditioners, distributed matvec,
* :mod:`repro.matrices` — G0/TORSO-class problem generators,
* :mod:`repro.analysis` — fill/speedup metrics and paper-style tables.

Quickstart::

    from repro import ILUTParams, poisson2d, parallel_ilut_star
    from repro import gmres, ILUPreconditioner
    A = poisson2d(64)
    result = parallel_ilut_star(A, ILUTParams(fill=10, threshold=1e-4, k=2), 16)
    sol = gmres(A, b, restart=20, M=ILUPreconditioner(result.factors))
"""

from .decomp import DomainDecomposition, decompose
from .faults import FaultJournal, FaultPlan, MessageFault, RankFault
from .graph import (
    Graph,
    adjacency_from_matrix,
    greedy_coloring,
    luby_mis,
    two_step_luby_mis,
)
from .ilu import (
    ILUFactors,
    ILUTParams,
    ParallelILUResult,
    ilu0,
    iluk,
    ilut,
    parallel_ilut,
    parallel_ilut_partitioned,
    parallel_ilut_star,
    parallel_triangular_solve,
)
from .machine import CRAY_T3D, IDEAL, WORKSTATION_CLUSTER, MachineModel, Simulator
from .matrices import (
    convection_diffusion2d,
    fem_unstructured,
    poisson2d,
    poisson3d,
    random_diag_dominant,
    torso_like,
)
from .partition import partition_graph_kway, partition_matrix_kway
from .resilience import (
    NumericalBreakdown,
    PivotPolicy,
    RetryPolicy,
    RobustPreconditioner,
    ZeroPivotError,
)
from .solvers import (
    DiagonalPreconditioner,
    IdentityPreconditioner,
    ILU0Preconditioner,
    ILUPreconditioner,
    gmres,
    parallel_matvec,
)
from .sparse import COOBuilder, CSRMatrix

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # sparse
    "CSRMatrix",
    "COOBuilder",
    # graph
    "Graph",
    "adjacency_from_matrix",
    "greedy_coloring",
    "luby_mis",
    "two_step_luby_mis",
    # partition
    "partition_graph_kway",
    "partition_matrix_kway",
    # machine
    "MachineModel",
    "Simulator",
    "CRAY_T3D",
    "WORKSTATION_CLUSTER",
    "IDEAL",
    # decomp
    "DomainDecomposition",
    "decompose",
    # ilu
    "ILUTParams",
    "ilut",
    "ilu0",
    "iluk",
    "ILUFactors",
    "parallel_ilut",
    "parallel_ilut_star",
    "parallel_ilut_partitioned",
    "parallel_triangular_solve",
    "ParallelILUResult",
    # solvers
    "gmres",
    "parallel_matvec",
    "ILUPreconditioner",
    "ILU0Preconditioner",
    "DiagonalPreconditioner",
    "IdentityPreconditioner",
    # faults
    "FaultPlan",
    "FaultJournal",
    "MessageFault",
    "RankFault",
    # resilience
    "NumericalBreakdown",
    "ZeroPivotError",
    "PivotPolicy",
    "RobustPreconditioner",
    "RetryPolicy",
    # matrices
    "poisson2d",
    "poisson3d",
    "convection_diffusion2d",
    "fem_unstructured",
    "torso_like",
    "random_diag_dominant",
]
