"""Array kernels: the CSR operations and the triangular-solve schedules.

Each operation has one implementation, and every row sum in it runs
left to right from ``0.0`` in stored order (:mod:`repro.kernels.csr`,
:mod:`repro.kernels.triangular`).  The scalar loops they replaced live
under ``tests/`` as oracles.
"""

from collections.abc import Iterator
from contextlib import contextmanager

from .csr import (
    csr_diagonal,
    csr_gather_rows,
    csr_matvec,
    csr_matvec_rows,
    csr_row_norms,
    csr_split_lu,
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
    "use_backend",
    "csr_matvec",
    "csr_matvec_rows",
    "csr_row_norms",
    "csr_diagonal",
    "csr_gather_rows",
    "csr_split_lu",
    "BatchedTriangularSchedule",
    "triangular_levels",
    "triangular_diagonal",
    "cached_analysis",
    "cached_schedules",
    "clear_schedule_cache",
]


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Inert: checks that ``name`` is ``"reference"`` or ``"vectorized"``
    and selects nothing, since every operation has one implementation.

    Its last caller is the end-to-end benchmark
    (``benchmarks/e2e/workloads.py``); it is deleted with that call
    when the benchmark is next revised.
    """
    if name not in ("reference", "vectorized"):
        raise ValueError(f"unknown kernel backend {name!r}")
    yield name
