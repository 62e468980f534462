"""The partitioner's list/array kernels against their per-vertex oracles
(``_scalar.py``): equal matchings, coarse maps, refined parts and
boundary masks on random graphs, and ``decompose`` pinned to digests
recorded before the kernels changed."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomp import decompose
from repro.graph import Graph
from repro.matrices import poisson2d, torso_like
from repro.partition import boundary_mask, collapse_matching, heavy_edge_matching, refine_kway
from repro.sparse import CSRMatrix

from . import _scalar


@st.composite
def graphs(draw):
    """A symmetric graph with isolated vertices and several components
    likely; unit weights, small integer weights (many gain ties) or
    arbitrary floats (summation order shows)."""
    n = draw(st.integers(1, 60))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    pairs = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    kind = draw(st.sampled_from(["unit", "integer", "float"]))
    if kind == "unit":
        ew, vw = [1.0] * len(pairs), [1.0] * n
    elif kind == "integer":
        weight = st.integers(1, 3).map(float)
        ew = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
        vw = draw(st.lists(weight, min_size=n, max_size=n))
    else:
        weight = st.floats(0.01, 10.0, allow_nan=False)
        ew = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
        vw = draw(st.lists(weight, min_size=n, max_size=n))
    src = [a for a, _ in pairs] + [b for _, b in pairs]
    dst = [b for _, b in pairs] + [a for a, _ in pairs]
    S = CSRMatrix.from_coo(
        np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(ew + ew), (n, n)
    )
    return Graph(S.indptr, S.indices, S.data, np.array(vw))


def _parts(draw, n, nparts):
    return np.array(
        draw(st.lists(st.integers(0, nparts - 1), min_size=n, max_size=n)), dtype=np.int64
    )


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(0, 50))
def test_matching_and_collapse_equal_the_oracle(g, seed):
    match = heavy_edge_matching(g, seed=seed)
    assert np.array_equal(match, _scalar.heavy_edge_matching(g, seed=seed))
    coarse, cmap = collapse_matching(g, match)
    want, want_cmap = _scalar.collapse_matching(g, match)
    assert cmap.dtype == want_cmap.dtype and np.array_equal(cmap, want_cmap)
    for field in ("xadj", "adjncy", "adjwgt", "vwgt"):
        assert np.array_equal(getattr(coarse, field), getattr(want, field))


@settings(max_examples=200, deadline=None)
@given(
    g=graphs(),
    nparts=st.integers(2, 8),
    passes=st.integers(1, 8),
    max_imbalance=st.sampled_from([1.0, 1.01, 1.05, 1.3]),
    seed=st.integers(0, 50),
    data=st.data(),
)
def test_refine_equals_the_oracle(g, nparts, passes, max_imbalance, seed, data):
    part = _parts(data.draw, g.nvertices, nparts)
    kw = dict(max_imbalance=max_imbalance, passes=passes, seed=seed)
    want = _scalar.refine_kway(g, part.copy(), nparts, **kw)
    given_part = part.copy()
    got = refine_kway(g, given_part, nparts, **kw)
    assert got is given_part  # refines in place
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(g=graphs(), nparts=st.integers(1, 8), data=st.data())
def test_boundary_mask_equals_per_vertex_test(g, nparts, data):
    part = _parts(data.draw, g.nvertices, nparts)
    mask = boundary_mask(g, part)
    assert mask.dtype == bool
    assert np.array_equal(mask, _scalar.boundary_mask(g, part))


# sha256 of ``part`` / ``is_interface`` bytes, recorded before the
# partitioner's kernels left the per-vertex path
DECOMPOSE_DIGESTS = {
    ("poisson2d(40)", 2): (
        "ad4262c45ac5c823c3358389408d0f30a817b1164ea362e1f1d2b8a44acb536e",
        "38ad70cf3268b97e81ae80e158ecff9f1a9434e3da8ebead8f47bd4b95e95a94",
    ),
    ("poisson2d(40)", 4): (
        "1109f7de4d066d8912ac04a8b34aaf54db29ec184c331ad77a91b9abfd43834e",
        "583a75c1d3e272b19c3f891a9c511344a17b4cf7ab064d3622c28720f8c24f98",
    ),
    ("torso_like(600)", 2): (
        "6f5fea7a61e8a195e43532a0430191b4dc088564c65bf33e402692b8ddcc5ba2",
        "89a486df3a30741ff3085f668b8bfa8ecd25ca4623ca4c1d2ae50d6c03af4914",
    ),
    ("torso_like(600)", 4): (
        "b9ba8f63792156b5c16ade019e0852720665cb653583665fbbb5ff9c449bc7a1",
        "d7dad906cb82948d777ed0bc48eb1cb107b02d7e7608414de3ccf86c00be7c11",
    ),
}
MATRICES = {"poisson2d(40)": lambda: poisson2d(40), "torso_like(600)": lambda: torso_like(600)}


@pytest.mark.parametrize("name, p", sorted(DECOMPOSE_DIGESTS))
def test_decompose_is_pinned(name, p):
    d = decompose(MATRICES[name](), p, seed=0)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (d.part, d.is_interface))
    assert got == DECOMPOSE_DIGESTS[(name, p)]
