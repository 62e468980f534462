"""ILUM — multi-elimination ILU (Saad '92, the paper's reference [11]).

ILUM applies the independent-set idea to the *whole* matrix rather than
just the interface rows: repeatedly find a maximal independent set of
the current (reduced) matrix, eliminate those unknowns — their pivot
block is diagonal, so the elimination is trivially parallel — apply
threshold dropping to the Schur-complement-like reduced matrix, and
recurse, finishing with a small dense-ish tail factored directly.

This is the closest prior art to the paper's algorithm (which can be
read as "local ILUT + ILUM on the interface"), included both as a
baseline preconditioner and to let the library express the whole design
space: ILU(0)/ILU(k) (static), ILUT (sequential dynamic), ILUM (global
independent sets), parallel ILUT/ILUT* (two-phase).
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph, two_step_luby_mis
from ..resilience import PivotPolicy
from ..sparse import CSRMatrix
from .factors import ILUFactors, LevelStructure
from .row import Entries, PivotRow, eliminate_row, l_row, reduced_row, u_row
from .rowstore import RowsBuilder, permuted_csr

__all__ = ["ilum"]


def ilum(
    A: CSRMatrix,
    m: int,
    t: float,
    *,
    reduced_cap: int | None = None,
    max_levels: int | None = None,
    mis_rounds: int = 5,
    seed: int = 0,
    pivot_policy: PivotPolicy | None = None,
) -> ILUFactors:
    """Multi-elimination ILU factorization of ``A``.

    Parameters mirror ILUT: ``m`` caps each L/U row, ``t`` is the
    relative drop tolerance, and ``reduced_cap`` (optional, the ILUT*
    trick) caps reduced-matrix rows.  A zero (or NaN) pivot goes through
    ``pivot_policy`` (a :class:`~repro.resilience.PivotPolicy`; ``None``
    is ``PivotPolicy("guard")``), as in ILUT.
    Returns factors whose ``LevelStructure`` has one interface level per
    independent set and no interior blocks — every row belongs to some
    level.

    Each level is the MIS loop of the parallel engine on one rank, on
    the scalar row kernel (:mod:`repro.ilu.row`): ``u_row`` factors the
    independent rows, and ``eliminate_row`` + ``l_row`` + ``reduced_row``
    remove them from every remaining row that holds one of their columns.
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"ILUM requires a square matrix, got {A.shape}")
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if mis_rounds < 1:
        raise ValueError(f"mis_rounds must be >= 1, got {mis_rounds}")
    if max_levels is None:
        max_levels = n + 1
    policy = pivot_policy if pivot_policy is not None else PivotPolicy()

    norms = A.row_norms(ord=2)
    taus, norms = (t * norms).tolist(), norms.tolist()
    # live reduced rows over unfactored columns, each with its diagonal
    # slot, plus accumulated L rows and the factored U rows
    reduced: dict[int, Entries] = {}
    for i, cols, vals in A.iter_rows():
        row = list(zip(cols.tolist(), vals.tolist()))
        if i not in cols:
            row = sorted([*row, (i, 0.0)])
        reduced[i] = row
    l_rows: dict[int, Entries] = {}
    pivot_rows: dict[int, PivotRow] = {}
    # every factored row is a pivot, consumed in column order; a reduced
    # row only ever holds the current level's
    pkey = [-1] * n
    order: list[int] = []
    levels: list[np.ndarray] = []

    level = 0
    while reduced:
        if level >= max_levels:
            raise RuntimeError(f"ILUM did not terminate within {level} levels")
        remaining = sorted(reduced)
        # MIS of the current directed reduced structure
        local_of = {g: idx for idx, g in enumerate(remaining)}
        xadj = [0]
        adjncy: list[int] = []
        for g in remaining:
            adjncy += [local_of[c] for c, _ in reduced[g] if c != g]
            xadj.append(len(adjncy))
        iset_local = two_step_luby_mis(
            Graph(np.array(xadj, dtype=np.int64), np.array(adjncy, dtype=np.int64)),
            seed=seed + 1000 * (level + 1),
            rounds=mis_rounds,
        )
        if iset_local.size == 0:
            raise RuntimeError("empty independent set — cannot make progress")

        # factor the independent rows (all off-diagonals are U entries)
        pos_start = len(order)
        for idx in iset_local.tolist():
            i = remaining[idx]
            pivot_rows[i] = u_row(i, reduced.pop(i), taus[i], m, policy, norms[i])
            pkey[i] = i
            order.append(i)
        levels.append(np.arange(pos_start, len(order), dtype=np.int64))

        # eliminate the set from every remaining row that holds one of
        # its columns (the set is independent: no pivot reaches another)
        for i in sorted(reduced):
            row = reduced[i]
            if all(pkey[c] < 0 for c, _ in row):
                continue
            _ops, _reads, multipliers, rest = eliminate_row(
                [c for c, _ in row], [v for _, v in row], taus[i], pkey, pivot_rows
            )
            l_rows[i] = l_row(l_rows.get(i, []), multipliers, taus[i], m)
            reduced[i] = reduced_row(i, rest, taus[i], reduced_cap)
        level += 1

    perm = np.asarray(order, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[perm] = np.arange(n, dtype=np.int64)
    l_out, u_out = RowsBuilder(), RowsBuilder()
    for i in range(n):
        l_out.add_entries(l_rows.get(i, []))
        tail_cols, tail_vals, pivot = pivot_rows[i]
        u_out.add([i, *tail_cols], [pivot, *tail_vals])
    struct = LevelStructure(
        interior_ranges=[],
        interface_levels=levels,
        owner=np.zeros(n, dtype=np.int64),
    )
    struct.validate(n)
    return ILUFactors(
        L=permuted_csr(l_out.flat(), pos),
        U=permuted_csr(u_out.flat(), pos),
        perm=perm,
        levels=struct,
        stats={
            "algo": "ilum",
            "m": m,
            "t": t,
            "reduced_cap": reduced_cap,
            "num_levels": len(levels),
        },
    )
