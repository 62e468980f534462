#!/usr/bin/env python
"""Ordering matters: natural vs nested-dissection vs two-phase MIS.

The paper's §3 frames sparse factorization orderings as the source of
parallelism: separators (nested dissection) for complete factorizations,
independent sets for incomplete ones.  This example makes that concrete
on one grid:

* exact-LU fill under the natural vs nested-dissection ordering,
* dependency levels of the triangular factors (a proxy for parallel
  solve depth) under the natural vs the parallel two-phase ordering.

Run:  python examples/orderings.py
"""

from repro import ILUTParams, ilut, parallel_ilut, poisson2d
from repro.analysis import format_table
from repro.kernels import cached_schedules
from repro.partition import nested_dissection_matrix


def main(nx: int = 24) -> None:
    A = poisson2d(nx)
    n = A.shape[0]
    print(f"workload: {n}-row 5-point grid Laplacian, nnz={A.nnz}\n")

    # --- complete factorization fill: natural vs nested dissection
    f_nat = ilut(A, ILUTParams(fill=n, threshold=0.0))
    perm = nested_dissection_matrix(A, seed=0)
    f_nd = ilut(A.permute(perm, perm), ILUTParams(fill=n, threshold=0.0))
    print(
        format_table(
            ["ordering", "exact-LU nnz(L+U)", "fill factor"],
            [
                ["natural", f_nat.nnz, f_nat.nnz / A.nnz],
                ["nested dissection", f_nd.nnz, f_nd.nnz / A.nnz],
            ],
            title="separator orderings confine fill (paper §3)",
        )
    )
    print()

    # --- incomplete factorization solve depth: natural vs two-phase MIS
    f_seq = ilut(A, ILUTParams(fill=5, threshold=1e-3))
    f_par = parallel_ilut(
        A, ILUTParams(fill=5, threshold=1e-3), 8, seed=0, transport="none"
    ).factors
    seq_fwd, seq_bwd = cached_schedules(f_seq)
    par_fwd, par_bwd = cached_schedules(f_par)
    print(
        format_table(
            ["ordering", "fwd levels", "bwd levels"],
            [
                ["natural (sequential ILUT)", seq_fwd.num_levels, seq_bwd.num_levels],
                ["two-phase MIS (parallel ILUT)", par_fwd.num_levels, par_bwd.num_levels],
            ],
            title="independent-set orderings shorten dependency chains (paper §5)",
        )
    )


if __name__ == "__main__":
    main()
