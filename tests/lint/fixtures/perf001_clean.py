"""PERF001 clean twin: documented reference paths, cold paths."""


def documented_reference(A, x, sim):
    """Scalar reference implementation the parity suite diffs against."""
    for i in range(A.shape[0]):
        cols, vals = A.row(i)
        x[i] += vals.sum()
    sim.compute(0, 2.0 * A.nnz)
    return x


def uncharged_helper(A):
    # no machine-model charges: not a hot path this rule polices
    out = []
    for i in range(A.shape[0]):
        cols, vals = A.row(i)
        out.append(vals.sum())
    return out
