#!/usr/bin/env python
"""Ordering matters: natural vs two-phase MIS.

The paper's §3 frames sparse factorization orderings as the source of
parallelism: independent sets for incomplete factorizations.  This
example makes that concrete on one grid: the dependency levels of the
triangular factors (a proxy for parallel solve depth) under the natural
vs the parallel two-phase ordering.

Run:  python examples/orderings.py
"""

from repro import ILUTParams, ilut, parallel_ilut, poisson2d
from repro.analysis import format_table
from repro.kernels import cached_schedules


def main(nx: int = 24) -> None:
    A = poisson2d(nx)
    n = A.shape[0]
    print(f"workload: {n}-row 5-point grid Laplacian, nnz={A.nnz}\n")

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
