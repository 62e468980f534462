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
from ..resilience import ZeroPivotError
from ..sparse import COOBuilder, CSRMatrix, SparseRowAccumulator
from .dropping import keep_largest
from .factors import ILUFactors, LevelStructure

__all__ = ["ilum"]


def _merge_rows(
    c1: np.ndarray, v1: np.ndarray, c2: np.ndarray, v2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum-merge two sorted sparse rows."""
    if c1.size == 0:
        return c2.copy(), v2.copy()
    if c2.size == 0:
        return c1.copy(), v1.copy()
    cols = np.concatenate([c1, c2])
    vals = np.concatenate([v1, v2])
    order = np.argsort(cols, kind="stable")
    cols, vals = cols[order], vals[order]
    uniq = np.empty(cols.size, dtype=bool)
    uniq[0] = True
    np.not_equal(cols[1:], cols[:-1], out=uniq[1:])
    gid = np.cumsum(uniq) - 1
    out_vals = np.zeros(int(gid[-1]) + 1, dtype=np.float64)
    np.add.at(out_vals, gid, vals)
    return cols[uniq], out_vals


def ilum(
    A: CSRMatrix,
    m: int,
    t: float,
    *,
    reduced_cap: int | None = None,
    max_levels: int | None = None,
    mis_rounds: int = 5,
    seed: int = 0,
    diag_guard: bool = True,
) -> ILUFactors:
    """Multi-elimination ILU factorization of ``A``.

    Parameters mirror ILUT: ``m`` caps each L/U row, ``t`` is the
    relative drop tolerance, and ``reduced_cap`` (optional, the ILUT*
    trick) caps reduced-matrix rows.  Returns factors whose
    ``LevelStructure`` has one interface level per independent set and
    no interior blocks — every row belongs to some level.
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"ILUM requires a square matrix, got {A.shape}")
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if max_levels is None:
        max_levels = n + 1

    norms = A.row_norms(ord=2)
    # live reduced rows over unfactored columns, plus accumulated L rows
    reduced: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i, cols, vals in A.iter_rows():
        on = cols == i
        if not np.any(on):  # ensure a pivot slot exists
            ins = int(np.searchsorted(cols, i))
            cols = np.insert(cols, ins, i)
            vals = np.insert(vals, ins, 0.0)
        reduced[i] = (cols.copy(), vals.copy())
    l_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    u_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    pos = np.full(n, -1, dtype=np.int64)
    order: list[int] = []
    levels: list[np.ndarray] = []
    w = SparseRowAccumulator(n)

    def tau(i: int) -> float:
        return t * norms[i]

    def guard(i: int, d: float) -> float:
        if d != 0.0:
            return d
        if not diag_guard:
            raise ZeroPivotError(f"zero pivot at row {i}", row=i, value=0.0)
        ti = tau(i)
        if ti > 0:
            return ti
        return norms[i] if norms[i] > 0 else 1.0

    level = 0
    while reduced:
        if level >= max_levels:
            raise RuntimeError(f"ILUM did not terminate within {level} levels")
        remaining = np.asarray(sorted(reduced.keys()), dtype=np.int64)
        # MIS of the current directed reduced structure
        local_of = {int(g): idx for idx, g in enumerate(remaining)}
        xadj = np.zeros(remaining.size + 1, dtype=np.int64)
        chunks = []
        for idx, g in enumerate(remaining):
            cols, _ = reduced[int(g)]
            nb = cols[cols != g]
            chunks.append(
                np.asarray([local_of[int(c)] for c in nb], dtype=np.int64)
            )
            xadj[idx + 1] = xadj[idx] + chunks[-1].size
        adjncy = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        iset_local = two_step_luby_mis(
            Graph(xadj, adjncy), seed=seed + 1000 * (level + 1), rounds=mis_rounds
        )
        iset = remaining[iset_local]
        if iset.size == 0:
            raise RuntimeError("empty independent set — cannot make progress")

        # factor the independent rows (all off-diagonals are U entries)
        iset_mask = np.zeros(n, dtype=bool)
        iset_mask[iset] = True
        pos_start = len(order)
        for i_arr in iset:
            i = int(i_arr)
            cols, vals = reduced.pop(i)
            ti = tau(i)
            on = cols == i
            diag = float(vals[on][0]) if np.any(on) else 0.0
            big = (np.abs(vals) >= ti) & ~on
            uc, uv = keep_largest(cols[big], vals[big], m)
            diag = guard(i, diag)
            u_rows[i] = (
                np.concatenate(([i], uc)).astype(np.int64),
                np.concatenate(([diag], uv)),
            )
            pos[i] = len(order)
            order.append(i)
        levels.append(np.arange(pos_start, len(order), dtype=np.int64))

        # eliminate the set from every remaining row (single pass — the
        # set is independent, so no new pivots appear)
        for i in sorted(reduced.keys()):
            cols, vals = reduced[i]
            pivots = cols[iset_mask[cols]]
            if pivots.size == 0:
                continue
            ti = tau(i)
            w.load(cols, vals)
            new_lc: list[int] = []
            new_lv: list[float] = []
            for k_arr in pivots:
                k = int(k_arr)
                wk = w.get(k)
                w.drop(k)
                if wk == 0.0:
                    continue
                ucols, uvals = u_rows[k]
                wk = wk / uvals[0]
                if abs(wk) < ti:
                    continue
                new_lc.append(k)
                new_lv.append(wk)
                if ucols.size > 1:
                    w.axpy(-wk, ucols[1:], uvals[1:])
            rcols, rvals = w.extract()
            w.reset()
            lc_old, lv_old = l_rows.get(i, (np.empty(0, np.int64), np.empty(0)))
            lc_new = np.asarray(new_lc, dtype=np.int64)
            lv_new = np.asarray(new_lv, dtype=np.float64)
            o = np.argsort(lc_new, kind="stable")
            lc_m, lv_m = _merge_rows(lc_old, lv_old, lc_new[o], lv_new[o])
            big = np.abs(lv_m) >= ti
            lc_m, lv_m = keep_largest(lc_m[big], lv_m[big], m)
            l_rows[i] = (lc_m, lv_m)
            on = rcols == i
            diag_val = float(rvals[on][0]) if np.any(on) else 0.0
            keep = (np.abs(rvals) >= ti) & ~on
            rc_k, rv_k = rcols[keep], rvals[keep]
            if reduced_cap is not None:
                rc_k, rv_k = keep_largest(rc_k, rv_k, max(0, reduced_cap - 1))
            ins = int(np.searchsorted(rc_k, i))
            rc_k = np.insert(rc_k, ins, i)
            rv_k = np.insert(rv_k, ins, diag_val)
            reduced[i] = (rc_k, rv_k)
        level += 1

    perm = np.asarray(order, dtype=np.int64)
    l_builder = COOBuilder(n)
    u_builder = COOBuilder(n)
    for i in range(n):
        p = int(pos[i])
        lc, lv = l_rows.get(i, (np.empty(0, np.int64), np.empty(0)))
        if lc.size:
            l_builder.add_batch(np.full(lc.size, p, dtype=np.int64), pos[lc], lv)
        uc, uv = u_rows[i]
        u_builder.add_batch(np.full(uc.size, p, dtype=np.int64), pos[uc], uv)
    struct = LevelStructure(
        interior_ranges=[],
        interface_levels=levels,
        owner=np.zeros(n, dtype=np.int64),
    )
    struct.validate(n)
    return ILUFactors(
        L=l_builder.to_csr(),
        U=u_builder.to_csr(),
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
