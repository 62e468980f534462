"""One summation order, any schedule: the §5 parallel apply, the serial
level applier and the row-by-row oracle (``_trisolve``) agree bit for
bit, on every transport and without one, on the factors of both
engines — and the apply's accounting is the one recorded before the row
kernel replaced the per-row ``np.dot``."""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from repro import ILUTParams, poisson2d, torso_like
from repro.ilu import (
    parallel_ilut,
    parallel_ilut_partitioned,
    parallel_ilut_star,
    parallel_triangular_solve,
)
from repro.ilu.apply import LevelScheduledApplier
from repro.kernels import use_backend
from repro.solvers import ILUPreconditioner

from . import _trisolve

TRANSPORTS = ("simulator", "none", "threads", "processes")
RANKS = (1, 2, 3, 4, 7)


def _factors(kind, p):
    if kind == "mis":
        return parallel_ilut(poisson2d(12), ILUTParams(5, 1e-3), p, seed=0, transport="none")
    if kind == "mis-star":
        return parallel_ilut_star(
            torso_like(140, seed=1), ILUTParams(5, 1e-3, k=2), p, seed=0, transport="none"
        )
    return parallel_ilut_partitioned(
        torso_like(140, seed=1), ILUTParams(5, 1e-3), p, seed=0, transport="none"
    )


def _intra_level_entries(factors):
    """L entries coupling two rows of the same interface level."""
    level_of = np.full(factors.n, -1)
    for k, positions in enumerate(factors.levels.interface_levels):
        level_of[positions] = k
    L = factors.L
    rows = np.repeat(np.arange(factors.n), np.diff(L.indptr))
    return int(np.count_nonzero((level_of[rows] >= 0) & (level_of[rows] == level_of[L.indices])))


@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("kind", ["mis", "mis-star", "ipart"])
def test_every_schedule_gives_the_oracles_bits(kind, p):
    f = _factors(kind, p).factors
    b = np.sin(np.arange(f.n, dtype=np.float64)) + 1.5
    want = _trisolve.solve(f, b)
    assert np.array_equal(LevelScheduledApplier(f).apply(b), want)
    assert np.array_equal(ILUPreconditioner(f).apply(b), want)
    assert np.array_equal(f.solve(b), want)
    for transport in TRANSPORTS:
        got = parallel_triangular_solve(f, b, nranks=p, transport=transport)
        assert np.array_equal(got.x, want), transport


def test_the_sec7_factors_exercise_sub_rounds():
    # the bit-equality above covers intra-level dependencies only if the
    # §7 engine's levels actually have them
    assert _intra_level_entries(_factors("ipart", 3).factors) > 0
    assert _intra_level_entries(_factors("mis", 3).factors) == 0


def _cells_digest(tracer):
    cells = [
        (key, [(a.rank, a.kind, a.clock, a.epoch, a.seq) for a in accesses])
        for key, accesses in tracer.cells()
    ]
    return hashlib.sha256(repr(cells).encode()).hexdigest()


# recorded with the per-row np.dot kernel this order replaced: the
# accounting is count-based and must not move with the arithmetic
PINNED = {
    ("mis-star", 4): (
        0.0002474666666666665,
        {"nranks": 4, "total_flops": 1664.0, "messages": 61, "words_sent": 65.0,
         "barriers": 30, "collectives": 0, "per_rank_flops": [416.0, 425.0, 394.0, 429.0]},
        1664.0,
        "6115a9e91db6e7c8eeef43c15ddb95a6c270d27595c6550f1c71abe6e265b02a",
    ),
    ("ipart", 3): (
        0.00017696666666666659,
        {"nranks": 3, "total_flops": 2652.0, "messages": 19, "words_sent": 133.0,
         "barriers": 10, "collectives": 0, "per_rank_flops": [921.0, 953.0, 778.0]},
        2652.0,
        "f9634a368e7a296980748f729f9c1ccd5285e2ba96a802f9bb61e7d789538800",
    ),
}


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("case", sorted(PINNED))
def test_accounting_is_pinned(case, backend):
    # under both names the inert ``use_backend`` accepts: it selects nothing
    kind, p = case
    if kind == "mis-star":
        f = parallel_ilut_star(poisson2d(10), ILUTParams(5, 1e-3, k=2), p, seed=0, transport="none")
    else:
        f = _factors(kind, p)
    b = np.cos(np.arange(f.factors.n)) + 2.0
    with use_backend(backend):
        res = parallel_triangular_solve(f.factors, b, trace=True)
    modeled, comm, flops, cells = PINNED[case]
    assert res.modeled_time == modeled
    assert asdict(res.comm) == comm
    assert res.flops == flops
    assert _cells_digest(res.trace) == cells
