"""Transport wall-clock harness: simulator vs threads vs processes.

Times the two ends of the preconditioned pipeline — ILUT factorization
and the level-scheduled triangular solve — at ranks 1/2/4 on every
transport backend, verifies the cross-transport bit-identity contract
(DESIGN.md §13) on each configuration, and writes the results to
``BENCH_transport.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_transport.py            # full run
    PYTHONPATH=src python benchmarks/bench_transport.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_transport.py --quick --check

``--check`` exits nonzero if any transport diverges from the simulator's
factors or solution bits (the CI guard for the parity contract).  The
wall-clock columns themselves are reported, not asserted: on one host at
these rank counts the real transports pay their coordination overhead
without any extra hardware, so the interesting number is the *price* of
real workers, not a speedup.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro import ILUTParams, poisson2d
from repro.ilu import parallel_ilut
from repro.ilu.triangular import parallel_triangular_solve
from repro.machine import SupervisionPolicy

REPO_ROOT = Path(__file__).resolve().parent.parent

TRANSPORTS = ("simulator", "threads", "processes")
RANKS = (1, 2, 4)

#: supervision must cost < 5% on the no-fault path.  The absolute slack
#: floor absorbs fork-timing noise on short runs (quick mode factors in
#: ~1s with run-to-run swings of ~10%); on full-size runs the ratio gate
#: dominates.
OVERHEAD_RATIO_MAX = 1.05
OVERHEAD_ABS_SLACK_S = 0.25


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _factor_digest(factors) -> tuple:
    return (
        float(factors.L.data.sum()),
        float(factors.U.data.sum()),
        int(factors.L.nnz),
        int(factors.U.nnz),
        factors.perm.tobytes(),
    )


def run(nx: int, repeat: int) -> dict:
    A = poisson2d(nx)
    params = ILUTParams(fill=10, threshold=1e-4)
    b = A @ np.ones(A.shape[0])
    rows: list[dict] = []
    mismatches: list[str] = []

    for p in RANKS:
        baseline_factors = None
        baseline_x = None
        for name in TRANSPORTS:
            fact = parallel_ilut(A, params, p, seed=0, transport=name)
            sol = parallel_triangular_solve(
                fact.factors, b, nranks=p, transport=name
            )
            if name == "simulator":
                baseline_factors = _factor_digest(fact.factors)
                baseline_x = sol.x.tobytes()
            else:
                if _factor_digest(fact.factors) != baseline_factors:
                    mismatches.append(f"p={p} {name}: factor digest diverged")
                if sol.x.tobytes() != baseline_x:
                    mismatches.append(f"p={p} {name}: solution bits diverged")

            t_fact = _best_of(
                lambda: parallel_ilut(A, params, p, seed=0, transport=name),
                repeat,
            )
            t_solve = _best_of(
                lambda: parallel_triangular_solve(
                    fact.factors, b, nranks=p, transport=name
                ),
                repeat,
            )
            # real transports measure wall clock only: they run actual
            # workers, so there is no modeled time to report.  The marker
            # is what downstream checks key on — not the null fields.
            wall_only = name != "simulator"
            rows.append(
                {
                    "transport": name,
                    "ranks": p,
                    "wall_only": wall_only,
                    "factor_wall_s": t_fact,
                    "solve_wall_s": t_solve,
                    "factor_modeled_s": None if wall_only else fact.modeled_time,
                    "solve_modeled_s": None if wall_only else sol.modeled_time,
                    "num_levels": fact.num_levels,
                    "messages": fact.comm.messages,
                }
            )
            print(
                f"p={p} {name:<10} factor {t_fact:8.4f}s  "
                f"solve {t_solve:8.4f}s"
            )

    overhead = supervision_overhead(A, params, max(repeat, 3))

    return {
        "benchmark": "transport",
        "matrix": f"poisson2d({nx})",
        "n": int(A.shape[0]),
        "params": {"fill": 10, "threshold": 1e-4},
        "repeat": repeat,
        # p ranks are p + 1 processes on this many cores (ROADMAP item 2)
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "parity_ok": not mismatches,
        "mismatches": mismatches,
        "supervision_overhead": overhead,
        "supervision_overhead_ok": all(row["ok"] for row in overhead),
    }


def supervision_overhead(A, params, repeat: int) -> list[dict]:
    """Price of the region supervisor on the no-fault path (DESIGN.md §14).

    Times the factorization with the default supervision policy (polled
    collection, deadlines, heartbeats armed) against a policy with the
    deadline disabled (legacy blocking collection) on each real
    transport.  The supervised path must stay within
    ``OVERHEAD_RATIO_MAX`` of the unsupervised one — with an absolute
    slack floor so millisecond-scale runs don't flake the gate.
    """
    p = RANKS[-1]
    unsupervised = SupervisionPolicy(deadline=None)
    out: list[dict] = []
    for name in ("threads", "processes"):
        # interleave the two configurations so load drift hits both alike
        t_sup = float("inf")
        t_raw = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            parallel_ilut(A, params, p, seed=0, transport=name)
            t_sup = min(t_sup, time.perf_counter() - t0)
            t0 = time.perf_counter()
            parallel_ilut(
                A, params, p, seed=0, transport=name, supervision=unsupervised
            )
            t_raw = min(t_raw, time.perf_counter() - t0)
        ratio = t_sup / t_raw if t_raw > 0 else 1.0
        ok = ratio <= OVERHEAD_RATIO_MAX or (t_sup - t_raw) <= OVERHEAD_ABS_SLACK_S
        out.append(
            {
                "transport": name,
                "ranks": p,
                "supervised_wall_s": t_sup,
                "unsupervised_wall_s": t_raw,
                "overhead_ratio": ratio,
                "ok": ok,
            }
        )
        print(
            f"p={p} {name:<10} supervised {t_sup:8.4f}s  "
            f"unsupervised {t_raw:8.4f}s  ratio {ratio:5.3f}"
        )
    return out


def modeled_mismatches(rows: list[dict]) -> list[str]:
    """Modeled-time sanity over the result rows.

    Rows from real transports are skipped by their explicit
    ``wall_only`` marker — not by sniffing for null modeled fields, so
    a simulator row that *lost* its modeled numbers is an error rather
    than silently passing as "real transport".
    """
    out: list[str] = []
    for row in rows:
        if row["wall_only"]:
            continue
        for key in ("factor_modeled_s", "solve_modeled_s"):
            v = row[key]
            if not (isinstance(v, float) and v > 0.0):
                out.append(
                    f"p={row['ranks']} {row['transport']}: {key} = {v!r}"
                )
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="small matrix, 1 repeat")
    ap.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if any transport diverges from the simulator bits",
    )
    ap.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_transport.json"),
        help="output JSON path (default: BENCH_transport.json at repo root)",
    )
    args = ap.parse_args(argv)

    nx = 16 if args.quick else 40
    repeat = 1 if args.quick else 3
    doc = run(nx, repeat)

    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.output}")
    failed = False
    if doc["mismatches"]:
        for m in doc["mismatches"]:
            print(f"PARITY FAILURE: {m}", file=sys.stderr)
        failed = True
    elif args.check:
        print("parity check passed: all transports bit-identical to simulator")
    modeled_bad = modeled_mismatches(doc["rows"])
    if modeled_bad:
        for m in modeled_bad:
            print(f"MODELED FIELD FAILURE: {m}", file=sys.stderr)
        failed = True
    elif args.check:
        print("modeled fields present on every non-wall-only row")
    if not doc["supervision_overhead_ok"]:
        for row in doc["supervision_overhead"]:
            if not row["ok"]:
                print(
                    f"SUPERVISION OVERHEAD FAILURE: {row['transport']} "
                    f"ratio {row['overhead_ratio']:.3f} > {OVERHEAD_RATIO_MAX}",
                    file=sys.stderr,
                )
        failed = True
    elif args.check:
        print("supervision overhead check passed: no-fault path within 5%")
    return 1 if args.check and failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
