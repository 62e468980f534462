"""Transport wall-clock harness: simulator vs threads vs processes.

Times the two ends of the preconditioned pipeline — ILUT factorization
and the level-scheduled triangular solve — at ranks 1/2/4 on every
transport backend, verifies the cross-transport bit-identity contract
(DESIGN.md §13) on each configuration, and writes the results to
``BENCH_transport.json`` at the repo root.  Every row carries wall time
(measured here) and modelled time (the result's, the same number on
every transport) side by side.

Usage::

    PYTHONPATH=src python benchmarks/bench_transport.py            # full run
    PYTHONPATH=src python benchmarks/bench_transport.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_transport.py --quick --check

``--check`` exits nonzero if any transport diverges from the simulator's
factors, solution bits or modelled times (the CI guard for the parity
contract).  The wall-clock columns themselves are reported, not
asserted: on one host at these rank counts the real transports pay their
coordination overhead without any extra hardware, so the interesting
number is the *price* of real workers, not a speedup.  What supervision
costs is measured by ``benchmarks/e2e`` (``machine.supervision_ratio``).
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

REPO_ROOT = Path(__file__).resolve().parent.parent

TRANSPORTS = ("simulator", "threads", "processes")
RANKS = (1, 2, 4)


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
        baseline: dict[str, object] = {}
        for name in TRANSPORTS:
            fact = parallel_ilut(A, params, p, seed=0, transport=name)
            sol = parallel_triangular_solve(
                fact.factors, b, nranks=p, transport=name
            )
            got = {
                "factor digest": _factor_digest(fact.factors),
                "solution bits": sol.x.tobytes(),
                "modelled factor time": fact.modeled_time,
                "modelled solve time": sol.modeled_time,
            }
            if name == "simulator":
                baseline = got
            mismatches += [
                f"p={p} {name}: {what} diverged" for what in got if got[what] != baseline[what]
            ]

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
            rows.append(
                {
                    "transport": name,
                    "ranks": p,
                    "factor_wall_s": t_fact,
                    "solve_wall_s": t_solve,
                    "factor_modeled_s": fact.modeled_time,
                    "solve_modeled_s": sol.modeled_time,
                    "num_levels": fact.num_levels,
                    "messages": fact.comm.messages,
                }
            )
            print(
                f"p={p} {name:<10} factor {t_fact:8.4f}s  "
                f"solve {t_solve:8.4f}s"
            )

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
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="small matrix, 1 repeat")
    ap.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if any transport diverges from the simulator's bits or modelled times",
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
    for m in doc["mismatches"]:
        print(f"PARITY FAILURE: {m}", file=sys.stderr)
    if args.check and not doc["mismatches"]:
        print(
            "parity check passed: factors, solution bits and modelled times "
            "equal the simulator's on every transport"
        )
    return 1 if args.check and doc["mismatches"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
