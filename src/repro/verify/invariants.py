"""Structural invariant checkers for the paper's data structures.

Composable ``check_*`` functions, each returning a list of
human-readable violation strings (empty list = invariant holds).  They
are deliberately independent of how the object was produced, so tests,
the ``python -m repro check`` CLI subcommand, and future regression
harnesses can all share them:

* :func:`check_csr` — CSR well-formedness: consistent ``indptr``,
  sorted/unique/in-range column indices, finite values;
* :func:`check_lu_factors` — factor validity: ``perm`` is a bijection,
  L strictly lower with at most ``m`` entries per row (the 2nd dropping
  rule), U diagonal-first with a nonsingular finite diagonal and at most
  ``m`` off-diagonal entries, level structure tiling the matrix and each
  interface level structurally independent in U;
* :func:`check_reduced_rows` — mid-factorization reduced matrix: rows
  sorted, diagonal slot present, columns confined to the remaining
  interface set, and (ILUT*) at most ``cap = k*m`` entries per row — the
  3rd dropping rule;
* :func:`check_decomposition` — partition/interface classification
  consistency: every interior row's neighbours really are local.

:func:`require` converts a non-empty violation list into an
:class:`InvariantViolation`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from ..decomp.decomposition import DomainDecomposition
    from ..ilu.factors import ILUFactors
    from ..sparse.csr import CSRMatrix

__all__ = [
    "InvariantViolation",
    "check_csr",
    "check_lu_factors",
    "check_reduced_rows",
    "check_decomposition",
    "require",
]


class InvariantViolation(Exception):
    """Raised by :func:`require` when any checker reported a violation."""


def require(violations: Sequence[str], context: str = "") -> None:
    """Raise :class:`InvariantViolation` if ``violations`` is non-empty."""
    if violations:
        head = f"{context}: " if context else ""
        raise InvariantViolation(head + "; ".join(violations))


# ----------------------------------------------------------------------
# CSR well-formedness
# ----------------------------------------------------------------------


def check_csr(A: CSRMatrix, *, name: str = "A") -> list[str]:
    """CSR well-formedness of ``A``; every kernel in the library assumes it."""
    out: list[str] = []
    nrows, ncols = A.shape
    indptr, indices, data = A.indptr, A.indices, A.data
    if indptr.shape != (nrows + 1,):
        out.append(f"{name}: indptr has shape {indptr.shape}, expected ({nrows + 1},)")
        return out  # everything below indexes via indptr
    if indptr[0] != 0:
        out.append(f"{name}: indptr[0] = {int(indptr[0])}, expected 0")
    if indptr[-1] != indices.size:
        out.append(
            f"{name}: indptr[-1] = {int(indptr[-1])} does not equal nnz = {indices.size}"
        )
    diffs = np.diff(indptr)
    neg = np.flatnonzero(diffs < 0)
    if neg.size:
        i = int(neg[0])
        out.append(
            f"{name}: indptr decreases at row {i} "
            f"({int(indptr[i])} -> {int(indptr[i + 1])})"
        )
        return out  # row slicing is meaningless from here on
    if indices.size != data.size:
        out.append(
            f"{name}: indices ({indices.size}) and data ({data.size}) lengths differ"
        )
        return out
    if indices.size:
        bad = (indices < 0) | (indices >= ncols)
        if bad.any():
            pos = int(np.argmax(bad))
            row = int(np.searchsorted(indptr, pos, side="right") - 1)
            off = pos - int(indptr[row])
            out.append(
                f"{name}: row {row}, offset {off}: column index "
                f"{int(indices[pos])} out of range [0, {ncols})"
            )
        if indices.size > 1:
            d = np.diff(indices)
            boundary = np.zeros(d.size, dtype=bool)
            starts = indptr[1:-1]
            starts = starts[(starts >= 1) & (starts < indices.size)]
            boundary[starts - 1] = True
            viol = (d <= 0) & ~boundary
            if viol.any():
                k = int(np.argmax(viol))
                row = int(np.searchsorted(indptr, k, side="right") - 1)
                off = k - int(indptr[row])
                kind = "duplicate" if indices[k + 1] == indices[k] else "unsorted"
                out.append(
                    f"{name}: row {row}: {kind} column indices at offsets "
                    f"{off} -> {off + 1} (columns {int(indices[k])} -> "
                    f"{int(indices[k + 1])})"
                )
        nonfinite = ~np.isfinite(data)
        if nonfinite.any():
            pos = int(np.argmax(nonfinite))
            row = int(np.searchsorted(indptr, pos, side="right") - 1)
            out.append(f"{name}: row {row}: non-finite value {float(data[pos])!r}")
    return out


# ----------------------------------------------------------------------
# LU factor validity
# ----------------------------------------------------------------------


def check_lu_factors(
    factors: ILUFactors,
    *,
    m: int | None = None,
    name: str = "factors",
) -> list[str]:
    """Validity of an incomplete factorization's L/U/perm/levels.

    With ``m`` given, the dual-dropping fill bounds are enforced: at most
    ``m`` entries per L row (unit diagonal implicit) and ``m`` entries
    per U row beyond the diagonal.
    """
    out: list[str] = []
    L, U, perm = factors.L, factors.U, factors.perm
    n = factors.n
    out += check_csr(L, name=f"{name}.L")
    out += check_csr(U, name=f"{name}.U")
    if out:
        return out  # structural damage makes the semantic checks unreliable

    seen = np.zeros(n, dtype=bool)
    if perm.shape != (n,) or (perm.size and (perm.min() < 0 or perm.max() >= n)):
        out.append(f"{name}: perm is not an index vector over [0, {n})")
    else:
        seen[perm] = True
        if not seen.all():
            missing = int(np.flatnonzero(~seen)[0])
            out.append(f"{name}: perm is not a bijection (misses index {missing})")

    l_nnz = np.diff(L.indptr)
    u_nnz = np.diff(U.indptr)
    for i in range(n):
        cols, _ = L.row(i)
        if cols.size and cols[-1] >= i:
            out.append(
                f"{name}.L: row {i} has entry at column {int(cols[-1])} "
                ">= diagonal (L must be strictly lower)"
            )
            break
    for i in range(n):
        cols, vals = U.row(i)
        if cols.size == 0 or cols[0] != i:
            out.append(f"{name}.U: row {i} does not store its diagonal first")
            break
        if vals[0] == 0.0 or not np.isfinite(vals[0]):
            out.append(f"{name}.U: row {i} has singular/non-finite diagonal {float(vals[0])!r}")
            break
    if m is not None:
        over_l = np.flatnonzero(l_nnz > m)
        if over_l.size:
            i = int(over_l[0])
            out.append(
                f"{name}.L: row {i} keeps {int(l_nnz[i])} entries, "
                f"2nd dropping rule allows at most m = {m}"
            )
        over_u = np.flatnonzero(u_nnz > m + 1)
        if over_u.size:
            i = int(over_u[0])
            out.append(
                f"{name}.U: row {i} keeps {int(u_nnz[i]) - 1} off-diagonal entries, "
                f"2nd dropping rule allows at most m = {m}"
            )

    levels = factors.levels
    if levels is not None:
        try:
            levels.validate(n)
        except ValueError as exc:
            out.append(f"{name}.levels: {exc}")
            return out
        if levels.owner.shape != (n,):
            out.append(f"{name}.levels: owner must cover every position")
        # independence: no U row of a level references another position of
        # the same level — that is exactly the MIS property the elimination
        # relies on to factor a level's rows concurrently.
        for lvl_idx, positions in enumerate(levels.interface_levels):
            in_level = np.zeros(n, dtype=bool)
            in_level[positions] = True
            for p in positions:
                cols, _ = U.row(int(p))
                hits = cols[1:][in_level[cols[1:]]] if cols.size > 1 else cols[:0]
                if hits.size:
                    out.append(
                        f"{name}.levels: level {lvl_idx} is not independent — "
                        f"position {int(p)} references position {int(hits[0])} "
                        "of the same level"
                    )
                    break
    return out


# ----------------------------------------------------------------------
# reduced-matrix invariants (phase 2, 3rd dropping rule)
# ----------------------------------------------------------------------


def check_reduced_rows(
    reduced: Mapping[int, tuple[np.ndarray, np.ndarray]],
    *,
    cap: int | None = None,
    name: str = "reduced",
) -> list[str]:
    """Mid-elimination reduced-matrix invariants.

    ``reduced`` maps each remaining interface row (original index) to its
    ``(cols, vals)`` reduced row, as maintained by the elimination
    engine.  Checks: columns strictly increasing, the row's own diagonal
    slot present, columns confined to the remaining (unfactored) set,
    finite values — and, with ``cap`` given (ILUT*'s ``k*m``), the 3rd
    dropping rule's bound on the retained entries per row.
    """
    out: list[str] = []
    remaining = set(int(i) for i in reduced)
    for i in sorted(reduced):
        cols, vals = reduced[i]
        cols = np.asarray(cols)
        vals = np.asarray(vals)
        if cols.size != vals.size:
            out.append(f"{name}[{i}]: cols/vals length mismatch")
            continue
        if cols.size > 1 and np.any(np.diff(cols) <= 0):
            out.append(f"{name}[{i}]: columns not strictly increasing")
        if i not in cols:
            out.append(f"{name}[{i}]: missing its own diagonal slot")
        stray = [int(c) for c in cols if int(c) not in remaining]
        if stray:
            out.append(
                f"{name}[{i}]: references factored/foreign column {stray[0]} "
                "(reduced rows may only couple remaining interface nodes)"
            )
        if vals.size and not np.all(np.isfinite(vals)):
            out.append(f"{name}[{i}]: non-finite value")
        if cap is not None and cols.size > cap:
            out.append(
                f"{name}[{i}]: keeps {cols.size} entries, 3rd dropping rule "
                f"(ILUT*) allows at most k*m = {cap}"
            )
    return out


    mask = np.zeros(graph.nvertices, dtype=bool)
    mask[iset] = True
    for v in iset:
        nbrs = graph.adjncy[graph.xadj[v] : graph.xadj[v + 1]]
        hits = nbrs[mask[nbrs] & (nbrs != v)]
        if hits.size:
            out.append(
                f"{name}: vertices {int(v)} and {int(hits[0])} are adjacent "
                "but both in the set"
            )
            break
    return out


# ----------------------------------------------------------------------
# partition / interface classification
# ----------------------------------------------------------------------


def check_decomposition(decomp: DomainDecomposition, *, name: str = "decomp") -> list[str]:
    """Partition and interior/interface classification consistency.

    The phase-1 correctness of the paper's algorithm rests on interior
    rows having *only local* neighbours; a row misclassified as interior
    would be factored without the synchronisation its remote coupling
    requires, which is precisely the silent failure mode this checker
    (and the race detector) exists to catch.
    """
    out: list[str] = []
    n = decomp.A.shape[0]
    part = decomp.part
    if part.shape != (n,):
        out.append(f"{name}: part must assign every row")
        return out
    if part.size and (part.min() < 0 or part.max() >= decomp.nranks):
        out.append(f"{name}: part references a rank outside [0, {decomp.nranks})")
        return out
    if decomp.is_interface.shape != (n,):
        out.append(f"{name}: is_interface must cover every row")
        return out
    graph = decomp.graph
    for v in range(n):
        nbrs = graph.neighbors(v)
        has_remote = bool(nbrs.size) and bool(np.any(part[nbrs] != part[v]))
        if decomp.nranks == 1:
            has_remote = False
        if bool(decomp.is_interface[v]) != has_remote:
            label = "interface" if decomp.is_interface[v] else "interior"
            out.append(
                f"{name}: row {v} classified {label} but "
                f"{'has' if has_remote else 'has no'} cross-domain neighbours"
            )
            break
    # interior/interface row lists must tile the owned rows exactly
    for r in range(decomp.nranks):
        interior = decomp.interior_rows(r)
        interface = decomp.interface_rows(r)
        owned = decomp.owned_rows(r)
        merged = np.sort(np.concatenate([interior, interface]))
        if not np.array_equal(merged, owned):
            out.append(f"{name}: rank {r} interior+interface rows != owned rows")
            break
    return out
