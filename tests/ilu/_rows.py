"""Helpers for tests that set the engine's row stores by hand and read
a thunk's :class:`~repro.ilu.rowstore.RowBlock` one row at a time."""

from types import SimpleNamespace

import numpy as np

from repro.ilu.rowstore import RowsBuilder, RowStore


def flat_of(rows):
    """``FlatRows`` of a sequence of ``(cols, vals)`` pairs."""
    builder = RowsBuilder()
    for cols, vals in rows:
        builder.add(list(cols), list(vals))
    return builder.flat()


def store_of(n, rows):
    """A ``RowStore`` over ``n`` rows holding the ``{row: (cols, vals)}`` given."""
    store = RowStore(n)
    store.put(np.array(list(rows), dtype=np.int64), flat_of(list(rows.values())))
    return store


def records_of(block):
    """The rows of a block, one namespace each: ``row``, ``l_row`` /
    ``u_row`` / ``reduced_row`` as ``(cols, vals)`` or ``None``, ``ops``,
    ``copy_words`` and ``decls`` — what is merged and replayed per row."""

    def part(flat, j):
        if flat is None:
            return None
        return flat.cols[flat.ptr[j] : flat.ptr[j + 1]], flat.vals[flat.ptr[j] : flat.ptr[j + 1]]

    ops, copy, decls = block.ops.tolist(), block.copy_words(), block.decls()
    copy = [None] * len(ops) if copy is None else copy.tolist()
    out = []
    for j, i in enumerate(block.rows.tolist()):
        l_part = part(block.l_rows, j)
        if block.skip_empty_l and l_part[0].size == 0:
            l_part = None
        out.append(
            SimpleNamespace(
                row=i,
                l_row=l_part,
                u_row=part(block.u_rows, j),
                reduced_row=part(block.reduced, j),
                ops=ops[j],
                copy_words=copy[j],
                decls=decls[j],
            )
        )
    return out
