"""Summaries, the printed table and ``--compare``."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


#: The four sampled stage timings are gated on the lower quartile of a
#: run's samples, everything else on the median.  This host slows down in
#: phases of several seconds (a stage then runs 1.3-1.6x slower), so a
#: run's median flips between a fast and a slow mode from run to run; the
#: lower quartile stays in the fast mode until three quarters of a run are
#: slow.  Over ten runs per workload in a noisy hour the worst
#: interquartile spread was 28% of the median for medians and 13% for
#: lower quartiles (README, "Noise").
GATED_ON_Q1 = ("time_to_solution_s", "factor_s", "apply_s", "gmres_s")


def summarise(metric: str, values: list[float], unit: str) -> dict[str, Any]:
    """Median, quartiles (``statistics.quantiles(n=4)``), sample count, and
    ``value``: the one number the driver and ``--compare`` gate on."""
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {"unit": unit, "value": q1 if metric in GATED_ON_Q1 else median,
            "median": median, "q1": q1, "q3": q3, "n": len(values)}


def print_table(name: str, block: dict[str, dict[str, Any]]) -> None:
    print(f"\n== {name} ==")
    print(f"{'metric':<28} {'unit':<6} {'value':>12} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    for metric, s in block.items():
        print(f"{metric:<28} {s['unit']:<6} {s['value']:>12.6g} {s['median']:>12.6g} "
              f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['n']:>4}")


def _spread(s: dict[str, Any]) -> float:
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def verdict(metric: str, a: dict[str, Any], b: dict[str, Any]) -> str:
    """``b`` against base ``a`` by the benchmark's own bounds."""
    if a["unit"] == "count":
        return "equal" if a["value"] == b["value"] else "DIFFERS"
    if metric not in END_TO_END:
        return "-"  # per-layer seconds and ratios carry no bound
    spec = END_TO_END[metric]
    bound = spec["bound"]
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    worse = b["value"] / a["value"] - 1.0 if a["value"] else 0.0
    if spec["better"] == "higher":
        worse = -worse
    return "regressed" if worse > bound else "within-bound"


def compare(path_a: str, path_b: str) -> int:
    """Print B against base A; non-zero if anything regressed or a count
    or the failure tally differs."""
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    print(f"base A = {path_a} ({doc_a['host']['commit'][:12]}, seed {doc_a['seed']})")
    print(f"     B = {path_b} ({doc_b['host']['commit'][:12]}, seed {doc_b['seed']})")
    bad = 0
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            print(f"\n== {name} == missing from B")
            bad += 1
            continue
        print(f"\n== {name} ==")
        print(f"{'metric':<32} {'A value':>14} {'B value':>14} {'B/A':>8}  verdict")
        for block in ("end_to_end", "per_layer"):
            for metric, a in wa.get(block, {}).items():
                b = wb.get(block, {}).get(metric)
                if b is None:
                    continue
                ratio = f"{b['value'] / a['value']:.3f}" if a["value"] else "-"
                v = verdict(metric, a, b)
                bad += v in ("regressed", "DIFFERS")
                print(f"{metric:<32} {a['value']:>14.6g} {b['value']:>14.6g} {ratio:>8}  {v}")
        # a run is time-boxed, so only the failure count must agree
        print(f"{'attempted':<32} {wa['attempted']:>14} {wb['attempted']:>14} {'':>8}  -")
        same = wa["failed"] == wb["failed"]
        bad += not same
        print(f"{'failed':<32} {wa['failed']:>14} {wb['failed']:>14} {'':>8}  "
              f"{'equal' if same else 'DIFFERS'}")
    print(f"\n{bad} regressed or differing" if bad else "\nall within bounds")
    return 1 if bad else 0
