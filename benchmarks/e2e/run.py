"""End-to-end benchmark of the ILUT pipeline: time to solution, its
stages, and (``--trace 1``) a per-layer breakdown.

    python3 benchmarks/e2e/run.py                                  # all workloads, untraced
    python3 benchmarks/e2e/run.py --trace both --out results.json
    python3 benchmarks/e2e/run.py --workload g0-proc-p2 --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --compare A.json B.json

Metrics, workloads and bounds are declared in ``BENCHMARK.json`` at the
repo root; ``README.md`` next to this file defines them.  Each workload
runs in fresh subprocesses of this script, one after another.  With
``--workload`` the last line of standard output is the driver's JSON
object.  The exit code is non-zero when an output check fails.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, before the heavy imports

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: traced cycles per run at least (each holds one supervision pair)
TRACE_MIN_CYCLES = 5
#: one workload's children must all have ended by then (the driver allows 180 s)
WORKLOAD_LIMIT_S = 170.0


# ---------------------------------------------------------------------------
# child: one fresh process per set-up / measurement
# ---------------------------------------------------------------------------

def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import numpy

    import passes
    from workloads import WORKLOADS, prepare

    p = prepare(WORKLOADS[args.workload], args.size, args.seed)
    out: dict[str, Any] = {"setup_s": time.perf_counter() - _T0}
    if args.child != "setup":
        if args.corrupt_oracle:
            p.corrupt_oracle()
        tally = passes.Tally()
        if args.child == "measure":
            out["samples"] = passes.measure_pass(p, args.seconds, tally)
            out["peak_rss_mib"] = passes.peak_rss_mib()
        else:
            min_cycles = 1 if args.size == "smoke" else TRACE_MIN_CYCLES
            out["cycles"] = passes.traced_pass(p, args.seconds, min_cycles, tally)
        out.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
        out["input"] = {"n": p.A.shape[0], "nnz": p.A.nnz, "numpy": numpy.__version__}
    print(json.dumps(out))
    return 0


def spawn(kind: str, args: argparse.Namespace, workload: str, deadline: float) -> dict[str, Any]:
    """Run one child to its end (killed at ``deadline``) and parse its line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", kind,
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if args.size == "smoke":
        cmd.append("--smoke")
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if done.returncode != 0:
        raise SystemExit(f"{workload}: {kind} child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# parent: orchestrate, summarise, print
# ---------------------------------------------------------------------------

def run_workload(name: str, args: argparse.Namespace) -> dict[str, Any]:
    from report import END_TO_END, PER_LAYER, summarise

    smoke = args.size == "smoke"
    deadline = time.perf_counter() + WORKLOAD_LIMIT_S
    result: dict[str, Any] = {"attempted": 0, "failed": 0, "failures": []}

    def absorb(child: dict[str, Any]) -> None:
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        result["failures"] += child["failures"]
        result["input"] = child["input"]

    if args.trace in ("0", "both"):
        setups = [spawn("setup", args, name, deadline)["setup_s"]
                  for _ in range(0 if smoke else SETUP_REPEATS - 1)]
        child = spawn("measure", args, name, deadline)
        absorb(child)
        samples = dict(child["samples"])
        samples["setup_s"] = setups + [child["setup_s"]]
        samples["peak_rss_mib"] = [child["peak_rss_mib"]]
        # a metric with no successful sample stays out: the run is incorrect anyway
        result["end_to_end"] = {
            m: summarise(m, samples[m], spec["unit"])
            for m, spec in END_TO_END.items() if samples.get(m)
        }
    if args.trace in ("1", "both"):
        child = spawn("trace", args, name, deadline)
        absorb(child)
        cycles = child["cycles"]
        names = sorted({k for c in cycles for k in c})
        # a layer a workload never enters reads 0
        every = {k: [c.get(k, 0.0) for c in cycles] for k in names}
        result["per_layer"] = {
            m: summarise(m, every.get(m, [0.0]), spec["unit"]) for m, spec in PER_LAYER.items()
        }
        # the undeclared rest (every layer of every stage, and the spans)
        result["trace"] = {
            k: summarise(k, vals, "s") for k, vals in every.items() if k not in PER_LAYER
        }
    result["correct"] = result["failed"] == 0
    return result


def host_stamp() -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload and end with the driver's JSON line")
    ap.add_argument("--seed", type=int, default=0, help="draws the right-hand side")
    ap.add_argument("--seconds", type=float, help="measured seconds per workload "
                    "(default: run_seconds of BENCHMARK.json; 0 with --smoke)")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0",
                    help="0: end-to-end metrics, tracing off; 1: per-layer metrics; both")
    ap.add_argument("--smoke", dest="size", action="store_const", const="smoke", default="full",
                    help="tiny inputs, one cycle, one set-up")
    ap.add_argument("--out", help="write the results as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="print B against base A by the benchmark's bounds")
    # internal: the per-process halves of a run, and the smoke test's probe
    ap.add_argument("--child", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    ap.add_argument("--corrupt-oracle", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    import report

    if args.compare:
        return report.compare(*args.compare)
    if args.seconds is None:
        args.seconds = 0.0 if args.size == "smoke" else float(report.SPEC["run_seconds"])
    declared = [w["name"] for w in report.SPEC["workloads"]]
    if args.workload is not None and args.workload not in declared:
        ap.error(f"unknown workload {args.workload!r}; choose from {declared}")

    doc: dict[str, Any] = {
        "host": host_stamp(), "seed": args.seed, "seconds": args.seconds, "size": args.size,
        "workloads": {},
    }
    for name in [args.workload] if args.workload else declared:
        result = doc["workloads"][name] = run_workload(name, args)
        doc["host"]["numpy"] = result["input"]["numpy"]
        for block in ("end_to_end", "per_layer"):
            if block in result:
                report.print_table(f"{name} {block}", result[block])
        print(f"attempted {result['attempted']}  failed {result['failed']}")
        for line in result["failures"]:
            print(f"FAILED {line}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {args.out}")
    if args.workload:
        r = doc["workloads"][args.workload]
        metrics = {
            m: {"value": s["value"], "unit": s["unit"]}
            for block in ("end_to_end", "per_layer") for m, s in r.get(block, {}).items()
        }
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": metrics}))
    return 0 if all(r["correct"] for r in doc["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
