"""Bit-identity fingerprints of the factorization drivers.

One sha256 per case over everything a factorization is allowed to
produce: the L/U/perm bytes, level sizes, flops, words copied, modelled
time, every ``CommStats`` field, recoveries, the fault journal's
signature under a fault plan and — when traced — every tracer cell.  A refactor that claims "same bits" writes the corpus at
the parent commit and compares it at the change::

    PYTHONPATH=src python benchmarks/fingerprint.py --write /tmp/fp.json
    PYTHONPATH=src python benchmarks/fingerprint.py --compare /tmp/fp.json

(copy this script onto the parent checkout for the first command; it
uses the public drivers only).  ``--quick`` is the CI subset, which is
written twice under different ``PYTHONHASHSEED`` values and compared:
anything that iterates a set or a dict of rows in hash order shows up
there.  The full corpus is ~2,700 small cases, about a minute per side.

The ``apply/`` family fingerprints the parallel triangular solve
(``parallel_triangular_solve``) on factors of every engine: one digest
of its accounting — modelled time, ``CommStats``, flops, recoveries,
tracer cells, and under a fault plan (``fwd``/``bwd`` drop, delay and
duplicate, a rank crash) the error it raised and the journal — and, as
the separate ``apply-x/`` family, one of the solution's bytes.  A change
to the summation order moves ``apply-x/`` digests only; the summary
line counts them apart.  The ``matvec/`` and ``matvec-y/`` families do
the same for the distributed matvec (``parallel_matvec``): accounting
(with halo-message fault plans) and the product's bytes.

Case names keep the ``ref`` / ``reference`` labels of the corpora
written while the library still had a kernel-backend switch; those
cases now run with the defaults, so such a corpus compares key for key.

The ``baselines/`` family fingerprints the paper's foils: the serial
static-pattern ``ilu0`` and ``iluk`` (k = 0..3), ``ilum`` over the
ILUT settings (``reduced_cap = k*m``), the colouring-based
``parallel_ilu0`` on every transport and ``block_jacobi_ilut`` — each
case L/U/perm, the level structure, ``stats``, modelled time and
``CommStats``.

The ``partition/`` family fingerprints the set-up stage on its own —
``part``, ``edge_cut``, ``balance`` and the interface mask — on
matrices large enough for the multilevel partitioner to coarsen
(the factorization matrices above have at most 140 rows, where
``coarsen_to = max(20 p, 40)`` leaves little to coarsen).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro import ILUTParams
from repro.decomp import decompose
from repro.faults import FaultError, FaultPlan, MessageFault, RankFault
from repro.ilu import (
    block_jacobi_ilut,
    ilu0,
    ilum,
    iluk,
    ilut,
    parallel_ilu0,
    parallel_ilut,
    parallel_ilut_partitioned,
    parallel_ilut_star,
    parallel_triangular_solve,
)
from repro.machine import CRAY_T3D, Simulator
from repro.matrices import (
    anisotropic2d,
    convection_diffusion2d,
    poisson2d,
    poisson3d,
    random_diag_dominant,
    random_geometric_laplacian,
    torso_like,
)
from repro.partition import edge_cut, partition_balance, partition_matrix_kway
from repro.solvers import parallel_matvec

MATRICES = {
    "poisson": lambda: poisson2d(9),
    "poisson-rect": lambda: poisson2d(11, 7),
    "poisson3d": lambda: poisson3d(4),
    "torso": lambda: torso_like(140, seed=1),
    "convdiff": lambda: convection_diffusion2d(9),
    "aniso": lambda: anisotropic2d(9),
    "rdd": lambda: random_diag_dominant(70, 6, seed=3),
    "rdd-unsym": lambda: random_diag_dominant(50, 5, seed=4, symmetric_pattern=False),
}
RANKS = (1, 2, 3, 4, 7)
# (m, t, k): ILUT and ILUT*, incl. no threshold, no fill, the tightest cap
SETTINGS = (
    (5, 1e-3, None),
    (5, 1e-3, 2),
    (10, 1e-4, 2),
    (3, 0.0, None),
    (3, 0.0, 1),
    (0, 1e-2, None),
    (4, 1e-2, 1),
)
VARIANTS = {
    "ref": {},
    "none": {"transport": "none"},
    "traced": {"trace": True},
}
QUICK_MATRICES = ("poisson", "torso", "rdd-unsym")
QUICK_RANKS = (2, 3)
QUICK_SETTINGS = (SETTINGS[1], SETTINGS[3], SETTINGS[6])
PARTITION_MATRICES = {
    "poisson": lambda: poisson2d(40),
    "poisson-rect": lambda: poisson2d(48, 30),
    "poisson3d": lambda: poisson3d(10),
    "torso": lambda: torso_like(600, seed=0),
    "convdiff": lambda: convection_diffusion2d(32),
    "aniso": lambda: anisotropic2d(32),
    "rdd": lambda: random_diag_dominant(400, 6, seed=3),
    "rdd-unsym": lambda: random_diag_dominant(300, 5, seed=4, symmetric_pattern=False),
    "geometric": lambda: random_geometric_laplacian(500, seed=2),
}
# the parallel triangular solve: factors of both engines, the same three
# variants, and fault plans on both sweeps' messages
APPLY_FACTORS = {"mis": SETTINGS[0], "mis-star": SETTINGS[1], "ipart": SETTINGS[0]}
APPLY_FAULTS = {
    "drop-fwd": FaultPlan(message_faults=[MessageFault("drop", tag="fwd", skip=1)]),
    "drop-bwd": FaultPlan(message_faults=[MessageFault("drop", tag="bwd", skip=2)]),
    "delay-fwd": FaultPlan(message_faults=[MessageFault("delay", tag="fwd", count=3, delay=1e-3)]),
    "delay-bwd": FaultPlan(message_faults=[MessageFault("delay", tag="bwd", count=2, delay=5e-4)]),
    "duplicate-fwd": FaultPlan(message_faults=[MessageFault("duplicate", tag="fwd", count=2)]),
    "duplicate-bwd": FaultPlan(message_faults=[MessageFault("duplicate", tag="bwd")]),
    "crash": FaultPlan(rank_faults=[RankFault("crash", rank=1, superstep=3)]),
}
MATVEC_FAULTS = {
    "drop": FaultPlan(message_faults=[MessageFault("drop", tag="halo")]),
    "delay": FaultPlan(message_faults=[MessageFault("delay", tag="halo", count=2, delay=1e-3)]),
    "duplicate": FaultPlan(message_faults=[MessageFault("duplicate", tag="halo", count=2)]),
    "crash": FaultPlan(rank_faults=[RankFault("crash", rank=1, superstep=0)]),
}
PARTITION_RANKS = (2, 3, 4, 7, 8)
PARTITION_SEEDS = (0, 1, 3)
PARTITION_KINDS = ("unweighted", "weighted", "decompose")


def _digest(parts: list) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _factor_parts(f) -> list:
    return [
        a.tobytes()
        for a in (f.L.indptr, f.L.indices, f.L.data, f.U.indptr, f.U.indices, f.U.data, f.perm)
    ]


def _cells(tracer) -> list:
    return [
        (key, [(a.rank, a.kind, a.clock, a.epoch, a.seq) for a in accesses])
        for key, accesses in tracer.cells()
    ]


def fingerprint(res) -> str:
    """The digest of one ``ParallelILUResult``."""
    parts = _factor_parts(res.factors)
    parts += [
        res.level_sizes,
        res.flops,
        res.words_copied,
        res.modeled_time,
        None if res.comm is None else sorted(asdict(res.comm).items()),
        res.recoveries,
    ]
    if res.fault_journal is not None:
        parts.append(res.fault_journal.signature())
    if res.trace is not None:
        parts.append(_cells(res.trace))
    return _digest(parts)


def _mis(A, mtk, p, **kwargs) -> str:
    """One factorization's digest, or — when a fault plan's fault
    escalates out of the driver — the digest of the error it raised."""
    m, t, k = mtk
    fn = parallel_ilut if k is None else parallel_ilut_star
    try:
        return fingerprint(fn(A, ILUTParams(fill=m, threshold=t, k=k), p, seed=0, **kwargs))
    except FaultError as err:
        return _digest([f"{type(err).__name__}: {err}"])


def _partitioned(A, mtk, p, **kwargs) -> str:
    m, t, k = mtk
    return fingerprint(
        parallel_ilut_partitioned(A, ILUTParams(fill=m, threshold=t, k=k), p, seed=0, **kwargs)
    )


def _serial(A, mtk) -> str:
    f = ilut(A, ILUTParams(fill=mtk[0], threshold=mtk[1]))
    return _digest(_factor_parts(f) + [f.stats["flops"], f.stats["fill_nnz"]])


def _factors(f) -> list:
    """A serial factorization's digest parts: L/U/perm, level structure, stats."""
    lv = f.levels
    levels = None if lv is None else (
        lv.interior_ranges, [a.tobytes() for a in lv.interface_levels], lv.owner.tobytes()
    )
    return _factor_parts(f) + [levels, sorted(f.stats.items())]


def _baseline(A, algo, arg, p=None, **kwargs) -> str:
    """One static-pattern or multi-elimination baseline, or the
    zero-coupling block-Jacobi strawman."""
    if algo == "ilu0":
        return _digest(_factors(ilu0(A)))
    if algo == "iluk":
        return _digest(_factors(iluk(A, arg)))
    if algo == "ilum":
        m, t, k = arg
        return _digest(_factors(ilum(A, m, t, reduced_cap=None if k is None else k * m)))
    if algo == "parallel_ilu0":
        res = parallel_ilu0(A, p, seed=0, **kwargs)
        return _digest([fingerprint(res), res.num_levels] + _factors(res.factors))
    m, t, _ = arg
    bj = block_jacobi_ilut(A, ILUTParams(fill=m, threshold=t), p, seed=0, **kwargs)
    parts = [bj.modeled_factor_time] + [r.tobytes() for r in bj.rows]
    for f in bj.blocks:
        parts += _factors(f)
    return _digest(parts)


def _baseline_cases(name, A, quick):
    """The ``baselines/`` family of one matrix."""
    ks = (1,) if quick else (0, 1, 2, 3)
    settings = (SETTINGS[1],) if quick else SETTINGS
    ranks = (3,) if quick else RANKS
    yield (f"baselines/ilu0/{name}", lambda: _baseline(A, "ilu0", None))
    for k in ks:
        yield (f"baselines/iluk/{name}/k{k}", lambda k=k: _baseline(A, "iluk", k))
    for mtk in settings:
        yield (f"baselines/ilum/{name}/{mtk}", lambda mtk=mtk: _baseline(A, "ilum", mtk))
    for p in ranks:
        for transport in ("simulator", "none"):
            yield (
                f"baselines/parallel_ilu0/{name}/p{p}/{transport}",
                lambda p=p, tr=transport: _baseline(A, "parallel_ilu0", None, p, transport=tr),
            )
        yield (
            f"baselines/block_jacobi/{name}/p{p}",
            lambda p=p: _baseline(A, "block_jacobi", SETTINGS[0], p),
        )


@lru_cache(maxsize=None)
def _apply_factors(name, kind, p):
    A = MATRICES[name]()
    m, t, k = APPLY_FACTORS[kind]
    params = ILUTParams(fill=m, threshold=t, k=k)
    if kind == "ipart":
        return parallel_ilut_partitioned(A, params, p, seed=0, transport="none").factors
    fn = parallel_ilut if k is None else parallel_ilut_star
    return fn(A, params, p, seed=0, transport="none").factors


def _apply_rhs(n):
    return np.cos(np.arange(n, dtype=np.float64)) + 2.0


def _apply(name, kind, p, part, faults=None, **kwargs) -> str:
    """One digest of a parallel triangular solve: its accounting
    (``part="acct"``) or its solution's bytes (``part="x"``).  Under a
    fault plan the solve runs on a ready simulator, so what it charged
    before the fault surfaced is part of the digest."""
    f = _apply_factors(name, kind, p)
    b = _apply_rhs(f.n)
    if faults is None:
        res = parallel_triangular_solve(f, b, nranks=p, **kwargs)
        if part == "x":
            return _digest([res.x.tobytes()])
        parts = [
            res.modeled_time,
            None if res.comm is None else sorted(asdict(res.comm).items()),
            res.flops,
            res.recoveries,
        ]
        tracer = res.trace
    else:
        sim = Simulator(p, CRAY_T3D, faults=faults, trace=True)
        try:
            res = parallel_triangular_solve(f, b, nranks=p, transport=sim, **kwargs)
            outcome, x = None, res.x.tobytes()
        except FaultError as err:
            outcome, x = f"{type(err).__name__}: {err}", None
        if part == "x":
            return _digest([x])
        parts = [outcome, sim.elapsed(), sorted(asdict(sim.stats()).items()),
                 sim.fault_journal.signature()]
        tracer = sim.tracer
    if tracer is not None:
        parts.append(_cells(tracer))
    return _digest(parts)


def _apply_cases(name, kind, p, label, **kwargs):
    """The accounting and the solution digest of one solve, as two cases."""
    for family, part in (("apply", "acct"), ("apply-x", "x")):
        yield (
            f"{family}/{name}/p{p}/{kind}/{label}",
            lambda part=part: _apply(name, kind, p, part, **kwargs),
        )


@lru_cache(maxsize=None)
def _matvec_input(name, p):
    A = MATRICES[name]()
    return A, decompose(A, p, seed=0), np.cos(np.arange(A.shape[0], dtype=np.float64)) + 2.0


def _matvec(name, p, part, faults=None, **kwargs) -> str:
    """One digest of a distributed matvec: its accounting
    (``part="acct"``) or its product's bytes (``part="y"``), as
    :func:`_apply` does for the triangular solve."""
    A, d, x = _matvec_input(name, p)
    if faults is None:
        res = parallel_matvec(A, d, x, **kwargs)
        if part == "y":
            return _digest([res.y.tobytes()])
        parts = [
            None if res.modeled_time is None else float(res.modeled_time),
            None if res.comm is None else sorted(asdict(res.comm).items()),
            float(res.flops),
            res.recoveries,
        ]
        tracer = res.trace
    else:
        sim = Simulator(p, CRAY_T3D, faults=faults, trace=True)
        try:
            y, outcome = parallel_matvec(A, d, x, transport=sim).y.tobytes(), None
        except FaultError as err:
            y, outcome = None, f"{type(err).__name__}: {err}"
        if part == "y":
            return _digest([y])
        parts = [outcome, float(sim.elapsed()), sorted(asdict(sim.stats()).items()),
                 sim.fault_journal.signature()]
        tracer = sim.tracer
    if tracer is not None:
        parts.append(_cells(tracer))
    return _digest(parts)


def _matvec_cases(name, p, label, **kwargs):
    for family, part in (("matvec", "acct"), ("matvec-y", "y")):
        yield (
            f"{family}/{name}/p{p}/{label}",
            lambda part=part: _matvec(name, p, part, **kwargs),
        )


def _partition(A, p, seed, kind) -> str:
    if kind == "decompose":
        d = decompose(A, p, seed=seed)
        return _digest(
            [
                d.part.tobytes(),
                d.is_interface.tobytes(),
                edge_cut(d.graph, d.part),
                partition_balance(d.graph, d.part, p),
            ]
        )
    res = partition_matrix_kway(A, p, weighted=kind == "weighted", seed=seed)
    return _digest([res.part.tobytes(), res.edge_cut, res.balance, res.levels, res.history])


def cases(quick: bool):
    """Yield ``(name, thunk)`` for every case of the corpus."""
    names = QUICK_MATRICES if quick else tuple(MATRICES)
    ranks = QUICK_RANKS if quick else RANKS
    settings = QUICK_SETTINGS if quick else SETTINGS
    for name in names:
        A = MATRICES[name]()
        for mtk in settings:
            yield (f"ilut/{name}/{mtk}/reference", lambda A=A, mtk=mtk: _serial(A, mtk))
            for p in ranks:
                for variant, kwargs in VARIANTS.items():
                    yield (
                        f"mis/{name}/p{p}/{mtk}/{variant}",
                        lambda A=A, mtk=mtk, p=p, kw=kwargs: _mis(A, mtk, p, **kw),
                    )
        # the §7 engine: untraced and traced, three settings
        for mtk in (SETTINGS[0], SETTINGS[1], SETTINGS[3]):
            for p in ranks if quick else (2, 4, 7):
                for trace in (False, True):
                    yield (
                        f"ipart/{name}/p{p}/{mtk}/trace={trace}",
                        lambda A=A, mtk=mtk, p=p, tr=trace: _partitioned(A, mtk, p, trace=tr),
                    )
        yield from _baseline_cases(name, A, quick)
    # fault plans on the simulator: region retries and retransmits
    A = MATRICES["torso"]()
    plans = {
        "crash": FaultPlan(rank_faults=[RankFault("crash", rank=1, superstep=3)]),
        "crash-late": FaultPlan(rank_faults=[RankFault("crash", rank=2, superstep=40)]),
        "drop": FaultPlan(message_faults=[MessageFault("drop", tag="urow")]),
        "drop-mis": FaultPlan(message_faults=[MessageFault("drop", tag="mis", count=2)]),
        "delay": FaultPlan(message_faults=[MessageFault("delay", tag="urow", count=3, delay=1e-3)]),
        "delay-mis": FaultPlan(message_faults=[MessageFault("delay", tag="mis", delay=5e-4)]),
        "duplicate": FaultPlan(message_faults=[MessageFault("duplicate", tag="urow", count=2)]),
        "duplicate-mis": FaultPlan(message_faults=[MessageFault("duplicate", tag="mis")]),
        # one message lost past every retransmit: MessageLost escalates
        "drop-lost": FaultPlan(
            message_faults=[MessageFault("drop", src=0, dst=1, tag="urow", count=4)]
        ),
    }
    for label, plan in plans.items():
        for mtk in (SETTINGS[0], SETTINGS[1]):
            yield (
                f"faults/{label}/{mtk}",
                lambda A=A, mtk=mtk, plan=plan: _mis(A, mtk, 3, faults=plan, trace=True),
            )
    # worker transports, every parallel driver
    for transport in ("threads", "processes"):
        for name in ("torso",) if quick else ("torso", "convdiff"):
            A = MATRICES[name]()
            for mtk in (SETTINGS[0], SETTINGS[1]):
                yield (
                    f"{transport}/mis/{name}/{mtk}",
                    lambda A=A, mtk=mtk, tr=transport: _mis(A, mtk, 3, transport=tr, trace=True),
                )
            yield (
                f"{transport}/ipart/{name}",
                lambda A=A, tr=transport: _partitioned(A, SETTINGS[0], 3, transport=tr),
            )
        yield (
            f"baselines/parallel_ilu0/torso/p3/{transport}",
            lambda tr=transport: _baseline(MATRICES["torso"](), "parallel_ilu0", None, 3, transport=tr),
        )
    # the parallel triangular solve
    if quick:
        yield from _apply_cases("torso", "ipart", 3, "traced", trace=True)
    else:
        for name in names:
            for p in ranks:
                for kind in APPLY_FACTORS:
                    for variant, kwargs in VARIANTS.items():
                        yield from _apply_cases(name, kind, p, variant, **kwargs)
        for label, plan in APPLY_FAULTS.items():
            yield from _apply_cases("torso", "mis-star", 3, f"{label}/reference", faults=plan)
        for transport in ("threads", "processes"):
            for kind in APPLY_FACTORS:
                yield from _apply_cases(
                    "torso", kind, 3, transport, transport=transport, trace=True
                )
    # the distributed matvec
    if quick:
        yield from _matvec_cases("torso", 3, "traced", trace=True)
    else:
        for name in names:
            for p in ranks:
                for variant, kwargs in VARIANTS.items():
                    yield from _matvec_cases(name, p, variant, **kwargs)
        for label, plan in MATVEC_FAULTS.items():
            yield from _matvec_cases("torso", 3, label, faults=plan)
        for transport in ("threads", "processes"):
            yield from _matvec_cases("torso", 3, transport, transport=transport, trace=True)
    # the set-up stage alone, where coarsening fires
    if quick:
        A = PARTITION_MATRICES["torso"]()
        yield ("partition/torso/p4/s0/decompose", lambda A=A: _partition(A, 4, 0, "decompose"))
        return
    for name, make in PARTITION_MATRICES.items():
        A = make()
        for p in PARTITION_RANKS:
            for seed in PARTITION_SEEDS:
                for kind in PARTITION_KINDS:
                    yield (
                        f"partition/{name}/p{p}/s{seed}/{kind}",
                        lambda A=A, p=p, s=seed, k=kind: _partition(A, p, s, k),
                    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", type=Path, help="compute the corpus and write it")
    mode.add_argument("--compare", metavar="FILE", type=Path, help="compute and diff against FILE")
    ap.add_argument("--quick", action="store_true", help="the CI subset")
    args = ap.parse_args(argv)

    got = {name: thunk() for name, thunk in cases(args.quick)}
    if args.write is not None:
        args.write.write_text(json.dumps(got, indent=0, sort_keys=True) + "\n")
        print(f"wrote {len(got)} fingerprints to {args.write}")
        return 0
    want = json.loads(args.compare.read_text())
    differing = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing = sorted(want.keys() ^ got.keys())
    for k in differing:
        print(f"DIFFERS  {k}")
    for k in missing:
        print(f"MISSING  {k} (present on one side only)")
    by_family = Counter(k.split("/", 1)[0] for k in differing)
    print(f"{len(got)} cases: {len(differing)} differ, {len(missing)} unmatched")
    if by_family:
        print("differ by family: " + ", ".join(f"{f} {c}" for f, c in sorted(by_family.items())))
    return 1 if differing or missing else 0


if __name__ == "__main__":
    sys.exit(main())
