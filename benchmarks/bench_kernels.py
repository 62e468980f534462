"""Kernel-backend regression harness: reference vs vectorized hot paths.

Times the three hot paths behind the ``backend`` switch — sequential
ILUT factorization, level-scheduled triangular apply, and preconditioned
GMRES — on the Poisson-G0 and torso workloads, verifies parity
(bit-identical factors; applier within 1e-12), replays the vectorized
parallel drivers under the race detector, and writes the results to
``BENCH_kernels.json`` at the repo root.  A fourth row, ``level_update``,
times the MIS engine's phase-2 update both ways on the same captured
levels: the scalar row kernel (``_update_remaining``) against the batched
level kernel (``repro.ilu.level``) that replaced it in the MIS loop.  A
fifth, ``phase1``, times the two phase-1 thunk bodies (interior block,
interface reduction — the scalar row kernel, ``repro.ilu.row``) and
reports how long each interface row's pivot chain is, which is what
decides whether batching phase 1 across rows could ever pay.  A sixth,
``partition``, times ``decompose`` and the §7 engine (which re-partitions
every round) with the partitioner's per-vertex oracles from
``tests/partition/_scalar.py`` patched in and with the current kernels,
and requires the same parts, interface mask and factors from both.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full run
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick --check

``--check`` exits nonzero if the vectorized triangular apply is not
faster than the reference row loop, the batched level update is not
faster than the scalar one or not bit-identical to it, or ``decompose``
is not faster on the current partitioner kernels or not identical to
the per-vertex ones (the CI guard against kernel-layer regressions).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np

from repro import ILUTParams, gmres, poisson2d, torso_like
from repro.decomp import decompose
from repro.ilu import ilut, parallel_ilut, parallel_ilut_star
from repro.ilu.apply import LevelScheduledApplier
from repro.ilu.elimination import EliminationEngine
from repro.ilu.interface_partition import InterfacePartitionEngine
from repro.ilu.triangular import parallel_triangular_solve
from repro.kernels import clear_schedule_cache
from repro.machine import CRAY_T3D, Simulator
from repro.solvers import ILUPreconditioner, parallel_matvec
from repro.verify import find_races

REPO_ROOT = Path(__file__).resolve().parent.parent


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _factors_identical(fa, fb) -> bool:
    return all(
        np.array_equal(x, y)
        for x, y in [
            (fa.L.indptr, fb.L.indptr),
            (fa.L.indices, fb.L.indices),
            (fa.L.data, fb.L.data),
            (fa.U.indptr, fb.U.indptr),
            (fa.U.indices, fb.U.indices),
            (fa.U.data, fb.U.data),
        ]
    )


def bench_factorization(cfg: dict) -> dict:
    A = poisson2d(cfg["fact_nx"])
    p = ILUTParams(fill=cfg["m"], threshold=cfg["t"])
    t_ref = _best_of(lambda: ilut(A, p, backend="reference"), cfg["fact_repeat"])
    t_vec = _best_of(lambda: ilut(A, p, backend="vectorized"), cfg["fact_repeat"])
    f_ref = ilut(A, p, backend="reference")
    f_vec = ilut(A, p, backend="vectorized")
    return {
        "workload": f"poisson2d({cfg['fact_nx']}) n={A.shape[0]} "
        f"m={cfg['m']} t={cfg['t']:g}",
        "reference_s": t_ref,
        "vectorized_s": t_vec,
        "speedup": t_ref / t_vec,
        "bit_identical": _factors_identical(f_ref, f_vec)
        and f_ref.stats["flops"] == f_vec.stats["flops"],
    }


def bench_triangular_apply(cfg: dict) -> dict:
    A = poisson2d(cfg["fact_nx"])
    params = ILUTParams(fill=cfg["m"], threshold=cfg["t"], k=cfg["k"])
    r = parallel_ilut_star(A, params, cfg["apply_p"], seed=0, transport="none")
    f = r.factors
    b = np.arange(1, A.shape[0] + 1, dtype=np.float64) / A.shape[0]
    clear_schedule_cache()
    app = LevelScheduledApplier(f)  # schedule build outside the timed region
    reps = cfg["apply_repeat"]

    def ref():
        for _ in range(cfg["apply_inner"]):
            f.solve(b)

    def vec():
        for _ in range(cfg["apply_inner"]):
            app.apply(b)

    t_ref = _best_of(ref, reps)
    t_vec = _best_of(vec, reps)
    x_ref = f.solve(b)
    x_vec = app.apply(b)
    rel = float(np.max(np.abs(x_ref - x_vec)) / np.max(np.abs(x_ref)))
    return {
        "workload": f"ILUT*({cfg['m']},{cfg['t']:g},{cfg['k']}) factors, "
        f"p={cfg['apply_p']}, poisson2d({cfg['fact_nx']}), "
        f"{cfg['apply_inner']} applies",
        "forward_levels": app.forward_levels,
        "backward_levels": app.backward_levels,
        "reference_s": t_ref,
        "vectorized_s": t_vec,
        "speedup": t_ref / t_vec,
        "max_rel_diff": rel,
        "parity_ok": rel <= 1e-12,
    }


def _store_bits(store) -> tuple:
    """Every stored row of a ``RowStore``, as bytes."""
    rows = np.array(list(store), dtype=np.int64)
    return (rows.tobytes(), *(a.tobytes() for a in store.gather(rows)))


def bench_level_update(cfg: dict) -> dict:
    """Scalar vs batched phase-2 update over the levels of one run.

    At every level the engine's row stores are checkpointed, the scalar
    update runs (timed), the checkpoint is restored, and the batched update
    runs on it (timed) and carries the factorization forward; what the
    two leave behind — reduced rows, L rows, flop and copy counters —
    must be equal bit for bit.  No transport: the timings are the two
    thunk bodies plus the shared merge loop, nothing else.
    """
    A = torso_like(cfg["level_n"], seed=0)
    decomp = decompose(A, cfg["level_p"], seed=0)
    m, t, k = cfg["level_m"], cfg["level_t"], cfg["level_k"]
    spent = {"scalar": 0.0, "batched": 0.0}
    row_updates = 0
    identical = True

    class BothWays(EliminationEngine):
        def _update_level(self, pivots):
            nonlocal identical, row_updates
            stores = (self.reduced, self.l_rows)
            start = [store.checkpoint() for store in stores]
            counters = (self.flops_total, self.words_copied)
            t0 = time.perf_counter()
            self._update_remaining(pivots.ordinal)
            spent["scalar"] += time.perf_counter() - t0
            scalar = (*map(_store_bits, stores), self.flops_total, self.words_copied)
            # a rebuilt row is re-appended, so its start moved
            row_updates += int(np.count_nonzero(self.reduced.start != start[0][0]))
            for store, snap in zip(stores, start):
                store.restore(snap)
            self.flops_total, self.words_copied = counters
            t0 = time.perf_counter()
            super()._update_level(pivots)
            spent["batched"] += time.perf_counter() - t0
            identical &= scalar == (*map(_store_bits, stores), self.flops_total, self.words_copied)

    best = {"scalar": float("inf"), "batched": float("inf")}
    for _ in range(cfg["level_repeat"]):
        spent.update(scalar=0.0, batched=0.0)
        row_updates = 0
        outcome = BothWays(decomp, m, t, reduced_cap=k * m).run()
        best = {side: min(best[side], spent[side]) for side in best}
    return {
        "workload": f"torso_like({cfg['level_n']}) n={A.shape[0]}, p={cfg['level_p']}, "
        f"ILUT*({m},{t:g},{k}), phase-2 update over {outcome.num_levels} levels, "
        f"{row_updates} row updates",
        "levels": outcome.num_levels,
        "row_updates": row_updates,
        "scalar_s": best["scalar"],
        "batched_s": best["batched"],
        "speedup": best["scalar"] / best["batched"],
        "bit_identical": identical,
    }


def bench_level_wall_time(cfg: dict) -> dict:
    """Wall time per synchronisation level: ILUT vs ILUT* vs the §7 engine.

    The two levers on phase-2 cost are what one level costs and how many
    levels there are.  The MIS engines report both from ``level_hook``
    timestamps (the hook fires after phase 1 and after every level); the
    §7 partition engine has few, large rounds and no hook, so it reports
    its whole factorization divided by its round count.  Simulator
    transport, as the ``torso-sim-p4`` e2e workload runs it; medians over
    ``level_repeat`` runs.
    """
    A = torso_like(cfg["level_n"], seed=0)
    p = cfg["level_p"]
    decomp = decompose(A, p, seed=0)
    m, t, k = cfg["level_m"], cfg["level_t"], cfg["level_k"]
    rows = {}
    for name, cap in ((f"ILUT({m},{t:g})", None), (f"ILUT*({m},{t:g},{k})", k * m)):
        runs = []
        for _ in range(cfg["level_repeat"]):
            stamps = [time.perf_counter()]
            outcome = EliminationEngine(
                decomp, m, t, reduced_cap=cap, sim=Simulator(p, CRAY_T3D),
                level_hook=lambda *_: stamps.append(time.perf_counter()),
            ).run()
            stamps.append(time.perf_counter())  # factor assembly ends here
            runs.append(np.diff(stamps))
        spans = np.median(runs, axis=0)  # phase 1, one per level, assembly
        rows[name] = {
            "levels": outcome.num_levels,
            "mean_level_size": float(np.mean(outcome.level_sizes)),
            "phase1_s": float(spans[0]),
            "phase2_s": float(spans[1:-1].sum()),
            "per_level_ms": float(1e3 * spans[1:-1].mean()),
            "per_level_median_ms": float(1e3 * np.median(spans[1:-1])),
            "total_s": float(spans.sum()),
        }
    totals = []
    for _ in range(cfg["level_repeat"]):
        t0 = time.perf_counter()
        outcome = InterfacePartitionEngine(decomp, m, t, sim=Simulator(p, CRAY_T3D)).run()
        totals.append(time.perf_counter() - t0)
    rows[f"interface partition (sec. 7), ILUT({m},{t:g})"] = {
        "levels": outcome.num_levels,
        "mean_level_size": float(np.mean(outcome.level_sizes)),
        "total_s": float(np.median(totals)),
        "total_per_level_ms": float(1e3 * np.median(totals) / outcome.num_levels),
    }
    return {
        "workload": f"torso_like({cfg['level_n']}) n={A.shape[0]}, p={p}, simulator, "
        f"median of {cfg['level_repeat']}",
        "rows": rows,
    }


def bench_phase1(cfg: dict) -> dict:
    """Wall time of phase 1's two thunk bodies, and the shape that keeps
    them scalar.

    No transport: the timings are the bodies themselves, summed over the
    ranks, best of ``phase1_repeat``.  A row's *pivot chain* is the
    sequence of pivots Algorithm 4.1 consumes for it, one after the
    other, new ones reached through fill included — the number of rounds
    a wavefront over a rank's interface rows would need for that row.
    Where the longest chain exceeds the number of rows there is nothing
    to batch across (ROADMAP item 2(a)).
    """
    p, m, t = cfg["phase1_p"], cfg["level_m"], cfg["level_t"]
    rows = {}
    for name, A in (
        (f"poisson2d({cfg['phase1_nx']})", poisson2d(cfg["phase1_nx"])),
        (f"torso_like({cfg['phase1_torso_n']})", torso_like(cfg["phase1_torso_n"], seed=0)),
    ):
        decomp = decompose(A, p, seed=0)

        def run():
            engine = EliminationEngine(decomp, m, t)
            t0 = time.perf_counter()
            interior = [engine._compute_interior_block(r) for r in range(p)]
            t1 = time.perf_counter()
            engine._merge_blocks(interior)
            t2 = time.perf_counter()
            interface = [engine._compute_interface_reduction(r) for r in range(p)]
            return t1 - t0, time.perf_counter() - t2, interface

        runs = [run() for _ in range(cfg["phase1_repeat"])]
        spans = [r[:2] for r in runs]
        # a block lists, per row, every pivot the row consumed
        chains = [np.diff(block.read_ptr).tolist() for block in runs[-1][2]]
        rows[name] = {
            "n": A.shape[0],
            "interior_rows": [int(decomp.interior_rows(r).size) for r in range(p)],
            "interior_block_s": min(s[0] for s in spans),
            "interface_rows": [len(c) for c in chains],
            "interface_reduction_s": min(s[1] for s in spans),
            "chain_median": [float(np.median(c)) if c else 0.0 for c in chains],
            "chain_max": [max(c, default=0) for c in chains],
        }
    return {
        "workload": f"p={p}, ILUT({m},{t:g}), no transport, thunk bodies summed over "
        f"ranks, best of {cfg['phase1_repeat']}; per-rank lists",
        "rows": rows,
    }


def _per_vertex_partitioner() -> ExitStack:
    """Patch the partitioner's per-vertex oracles (``tests/partition/_scalar.py``,
    the kernels the package ran before they moved onto lists and array
    passes) in wherever ``decompose`` and the §7 engine call the kernels."""
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from tests.partition import _scalar

    stack = ExitStack()
    for target, oracle in (
        ("repro.partition.kway.heavy_edge_matching", _scalar.heavy_edge_matching),
        ("repro.partition.kway.collapse_matching", _scalar.collapse_matching),
        ("repro.partition.kway.refine_kway", _scalar.refine_kway),
        ("repro.decomp.decomposition.boundary_mask", _scalar.boundary_mask),
        ("repro.ilu.interface_partition.boundary_mask", _scalar.boundary_mask),
    ):
        stack.enter_context(mock.patch(target, oracle))
    return stack


def bench_partition(cfg: dict) -> dict:
    """Wall time of the set-up stage and of the §7 engine (which
    re-partitions every round): per-vertex kernels against the current
    ones, same inputs, sides alternating, medians of ``partition_repeat``.

    Both sides must produce the same part array, interface mask and §7
    factors.  No transport for ``decompose``; the §7 engine runs on the
    simulator, as ``parallel_ilut_partitioned`` does by default.
    """
    m, t = cfg["level_m"], cfg["level_t"]
    rows = {}
    for label, make, p in cfg["partition_cases"]:
        A = make()

        def run():
            t0 = time.perf_counter()
            d = decompose(A, p, seed=0)
            t1 = time.perf_counter()
            f = InterfacePartitionEngine(d, m, t, sim=Simulator(p, CRAY_T3D)).run().factors
            return t1 - t0, time.perf_counter() - t1, (d.part, d.is_interface, f.L.data, f.U.data)

        spans = {"per_vertex": [], "current": []}
        outputs = {}
        for _ in range(cfg["partition_repeat"]):
            with _per_vertex_partitioner():
                *span, outputs["per_vertex"] = run()
            spans["per_vertex"].append(span)
            *span, outputs["current"] = run()
            spans["current"].append(span)
        med = {side: np.median(s, axis=0) for side, s in spans.items()}
        rows[f"{label}, p={p}"] = {
            "n": A.shape[0],
            "decompose_per_vertex_s": float(med["per_vertex"][0]),
            "decompose_s": float(med["current"][0]),
            "decompose_ratio": float(med["current"][0] / med["per_vertex"][0]),
            "sec7_engine_per_vertex_s": float(med["per_vertex"][1]),
            "sec7_engine_s": float(med["current"][1]),
            "sec7_engine_ratio": float(med["current"][1] / med["per_vertex"][1]),
            "identical": all(
                np.array_equal(a, b) for a, b in zip(outputs["per_vertex"], outputs["current"])
            ),
        }
    return {
        "workload": f"decompose(seed=0) and the sec. 7 engine, ILUT({m},{t:g}), simulator; "
        f"median of {cfg['partition_repeat']}, per-vertex and current kernels alternating",
        "rows": rows,
    }


def bench_gmres(cfg: dict) -> dict:
    out = {}
    for name, A in [
        ("g0", poisson2d(cfg["gmres_nx"])),
        ("torso", torso_like(cfg["torso_n"], seed=0)),
    ]:
        n = A.shape[0]
        b = A @ np.ones(n)
        f = ilut(A, ILUTParams(fill=cfg["m"], threshold=cfg["t"]))
        runs = {}
        for mode, fast in [("reference", False), ("vectorized", True)]:
            t0 = time.perf_counter()
            res = gmres(A, b, restart=20, M=ILUPreconditioner(f, fast=fast))
            dt = time.perf_counter() - t0
            runs[mode] = {
                "elapsed_s": dt,
                "converged": bool(res.converged),
                "num_matvec": res.num_matvec,
            }
        out[name] = {
            "workload": f"{name} n={n}, GMRES(20), "
            f"ILUT({cfg['m']},{cfg['t']:g}) preconditioner",
            **runs,
            "speedup": runs["reference"]["elapsed_s"] / runs["vectorized"]["elapsed_s"],
        }
    return out


def bench_race_free(cfg: dict) -> dict:
    """Replay every vectorized parallel driver under the race detector."""
    A = poisson2d(cfg["race_nx"])
    p = cfg["race_p"]
    params = ILUTParams(fill=5, threshold=1e-3)
    r = parallel_ilut(A, params, p, seed=0, trace=True, backend="vectorized")
    races = {"parallel_ilut": len(find_races(r.trace))}
    b = np.ones(A.shape[0])
    ts = parallel_triangular_solve(r.factors, b, trace=True, backend="vectorized")
    races["parallel_triangular_solve"] = len(find_races(ts.trace))
    d = decompose(A, p, seed=0)
    mv = parallel_matvec(A, d, b, trace=True, backend="vectorized")
    races["parallel_matvec"] = len(find_races(mv.trace))
    return {
        "workload": f"poisson2d({cfg['race_nx']}), p={p}, vectorized backend",
        "races": races,
        "race_free": all(v == 0 for v in races.values()),
    }


FULL = dict(
    fact_nx=128, m=10, t=1e-3, k=5, fact_repeat=2,
    apply_p=64, apply_inner=10, apply_repeat=3,
    gmres_nx=48, torso_n=1200, race_nx=16, race_p=4,
    level_n=600, level_p=4, level_m=10, level_t=1e-4, level_k=2, level_repeat=3,
    phase1_nx=40, phase1_torso_n=600, phase1_p=4, phase1_repeat=3,
    partition_cases=[
        ("poisson2d(40)", lambda: poisson2d(40), 4),
        ("torso_like(600)", lambda: torso_like(600), 4),
        ("poisson2d(40)", lambda: poisson2d(40), 2),
        ("poisson2d(96)", lambda: poisson2d(96), 4),
        ("torso_like(3000)", lambda: torso_like(3000), 4),
    ],
    partition_repeat=5,
)
QUICK = dict(
    fact_nx=32, m=10, t=1e-3, k=5, fact_repeat=2,
    apply_p=8, apply_inner=5, apply_repeat=2,
    gmres_nx=16, torso_n=300, race_nx=10, race_p=4,
    level_n=300, level_p=4, level_m=10, level_t=1e-4, level_k=2, level_repeat=2,
    phase1_nx=20, phase1_torso_n=300, phase1_p=4, phase1_repeat=2,
    partition_cases=[("torso_like(300)", lambda: torso_like(300), 4)],
    partition_repeat=2,
)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="tiny CI-smoke workload")
    ap.add_argument(
        "--check", action="store_true",
        help="exit 1 unless the vectorized apply, the batched level update and the "
        "partitioner kernels win",
    )
    ap.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_kernels.json"),
        help="output JSON path (default: BENCH_kernels.json at repo root)",
    )
    args = ap.parse_args(argv)
    cfg = QUICK if args.quick else FULL

    results: dict = {"scale": "quick" if args.quick else "full"}
    print(f"[bench_kernels] scale={results['scale']}")
    results["ilut_factorization"] = bench_factorization(cfg)
    r = results["ilut_factorization"]
    print(f"  factorization: {r['speedup']:.2f}x  (bit_identical={r['bit_identical']})")
    results["triangular_apply"] = bench_triangular_apply(cfg)
    r = results["triangular_apply"]
    print(f"  triangular apply: {r['speedup']:.2f}x  (max_rel_diff={r['max_rel_diff']:.2e})")
    results["level_update"] = bench_level_update(cfg)
    r = results["level_update"]
    print(f"  level update: {r['speedup']:.2f}x  (bit_identical={r['bit_identical']})")
    results["level_wall_time"] = bench_level_wall_time(cfg)
    for name, r in results["level_wall_time"]["rows"].items():
        per_level = r.get("per_level_ms", r.get("total_per_level_ms"))
        print(f"  wall/level {name}: {r['levels']} levels, {per_level:.2f} ms each")
    results["phase1"] = bench_phase1(cfg)
    for name, r in results["phase1"]["rows"].items():
        print(f"  phase 1 {name}: interior {1e3 * r['interior_block_s']:.1f} ms, "
              f"interface {1e3 * r['interface_reduction_s']:.1f} ms; per rank "
              f"{r['interface_rows']} interface rows, chain max {r['chain_max']}")
    results["partition"] = bench_partition(cfg)
    for name, r in results["partition"]["rows"].items():
        print(f"  partition {name}: decompose {1e3 * r['decompose_per_vertex_s']:.1f} -> "
              f"{1e3 * r['decompose_s']:.1f} ms, sec. 7 engine "
              f"{r['sec7_engine_per_vertex_s']:.3f} -> {r['sec7_engine_s']:.3f} s "
              f"(identical={r['identical']})")
    results["gmres"] = bench_gmres(cfg)
    for name, g in results["gmres"].items():
        print(f"  gmres/{name}: {g['speedup']:.2f}x  "
              f"(nmv {g['reference']['num_matvec']} -> {g['vectorized']['num_matvec']})")
    results["race_free"] = bench_race_free(cfg)
    print(f"  race-free: {results['race_free']['race_free']}")

    out = Path(args.output)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[bench_kernels] wrote {out}")

    if args.check:
        apply = results["triangular_apply"]
        level = results["level_update"]
        ok = (
            apply["speedup"] > 1.0
            and apply["parity_ok"]
            and results["ilut_factorization"]["bit_identical"]
            and level["speedup"] > 1.0
            and level["bit_identical"]
            and all(
                r["identical"] and r["decompose_ratio"] < 1.0
                for r in results["partition"]["rows"].values()
            )
            and results["race_free"]["race_free"]
        )
        if not ok:
            print("[bench_kernels] CHECK FAILED", file=sys.stderr)
            return 1
        print("[bench_kernels] check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
