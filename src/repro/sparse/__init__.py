"""Sparse-matrix substrate: COO assembly, CSR storage, triangular
kernels and MatrixMarket I/O.  (The elimination's working row lives in
the row kernel, :mod:`repro.ilu.row`.)"""

from .coo import COOBuilder
from .csr import CSRMatrix
from .io import read_matrix_market, write_matrix_market
from .ops import (
    count_triangular_flops,
    lower_solve,
    lower_solve_unit,
    split_lu,
    upper_solve,
)

__all__ = [
    "COOBuilder",
    "CSRMatrix",
    "lower_solve",
    "lower_solve_unit",
    "upper_solve",
    "split_lu",
    "count_triangular_flops",
    "read_matrix_market",
    "write_matrix_market",
]
