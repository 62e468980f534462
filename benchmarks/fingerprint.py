"""Bit-identity fingerprints of the factorization drivers.

One sha256 per case over everything a factorization is allowed to
produce: the L/U/perm bytes, level sizes, flops, words copied, modelled
time, every ``CommStats`` field, recoveries and — when traced — every
tracer cell.  A refactor that claims "same bits" writes the corpus at
the parent commit and compares it at the change::

    PYTHONPATH=src python benchmarks/fingerprint.py --write /tmp/fp.json
    PYTHONPATH=src python benchmarks/fingerprint.py --compare /tmp/fp.json

(copy this script onto the parent checkout for the first command; it
uses the public drivers only).  ``--quick`` is the CI subset, which is
written twice under different ``PYTHONHASHSEED`` values and compared:
anything that iterates a set or a dict of rows in hash order shows up
there.  The full corpus is ~1,800 small cases, a few minutes per side.

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
from dataclasses import asdict
from pathlib import Path

from repro import ILUTParams
from repro.decomp import decompose
from repro.faults import FaultPlan, MessageFault, RankFault
from repro.ilu import ilut, parallel_ilut, parallel_ilut_partitioned, parallel_ilut_star
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
    "ref": {"backend": "reference"},
    "vec": {"backend": "vectorized"},
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
    if res.trace is not None:
        parts.append(
            [
                (key, [(a.rank, a.kind, a.clock, a.epoch, a.seq) for a in accesses])
                for key, accesses in res.trace.cells()
            ]
        )
    return _digest(parts)


def _mis(A, mtk, p, **kwargs) -> str:
    m, t, k = mtk
    fn = parallel_ilut if k is None else parallel_ilut_star
    return fingerprint(fn(A, ILUTParams(fill=m, threshold=t, k=k), p, seed=0, **kwargs))


def _partitioned(A, mtk, p, **kwargs) -> str:
    m, t, k = mtk
    cap = None if k is None else k * m
    return fingerprint(
        parallel_ilut_partitioned(
            A, ILUTParams(fill=m, threshold=t), p, reduced_cap=cap, seed=0, **kwargs
        )
    )


def _serial(A, mtk, backend) -> str:
    f = ilut(A, ILUTParams(fill=mtk[0], threshold=mtk[1]), backend=backend)
    return _digest(_factor_parts(f) + [f.stats["flops"], f.stats["fill_nnz"]])


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
            for backend in ("reference", "vectorized"):
                yield (
                    f"ilut/{name}/{mtk}/{backend}",
                    lambda A=A, mtk=mtk, b=backend: _serial(A, mtk, b),
                )
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
    # fault plans on the simulator: checkpoint restarts and retransmits
    A = MATRICES["torso"]()
    plans = {
        "crash": FaultPlan(rank_faults=[RankFault("crash", rank=1, superstep=3)]),
        "crash-late": FaultPlan(rank_faults=[RankFault("crash", rank=2, superstep=40)]),
        "drop": FaultPlan(message_faults=[MessageFault("drop", tag="urow")]),
        "drop-mis": FaultPlan(message_faults=[MessageFault("drop", tag="mis", count=2)]),
        # one message lost past every retransmit: MessageLost -> checkpoint restart
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
    # worker transports, all three drivers
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
    print(f"{len(got)} cases: {len(differing)} differ, {len(missing)} unmatched")
    return 1 if differing or missing else 0


if __name__ == "__main__":
    sys.exit(main())
