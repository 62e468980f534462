"""Vectorized hot-path kernels (the ``backend="vectorized"`` layer).

Every kernel here has a scalar reference twin elsewhere in the library
that serves as its numerical oracle; see :mod:`repro.kernels.backend`
for the selection machinery and ``tests/kernels`` for the parity suite.
"""

from .backend import (
    REFERENCE,
    VECTORIZED,
    get_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from .csr import (
    csr_diagonal,
    csr_gather_rows,
    csr_matvec,
    csr_row_norms,
    segment_sums,
    split_lu_vectorized,
)
from .triangular import (
    BatchedTriangularSchedule,
    cached_analysis,
    cached_schedules,
    clear_schedule_cache,
    triangular_diagonal,
    triangular_levels,
)

__all__ = [
    "REFERENCE",
    "VECTORIZED",
    "get_backend",
    "set_backend",
    "use_backend",
    "resolve_backend",
    "segment_sums",
    "csr_matvec",
    "csr_row_norms",
    "csr_diagonal",
    "csr_gather_rows",
    "split_lu_vectorized",
    "BatchedTriangularSchedule",
    "triangular_levels",
    "triangular_diagonal",
    "cached_analysis",
    "cached_schedules",
    "clear_schedule_cache",
]
