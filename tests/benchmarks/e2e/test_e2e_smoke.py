"""Smoke test of ``benchmarks/e2e``: every declared metric is produced,
the trace adds up, a failed check is counted and changes the exit code."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[3]
RUN = [sys.executable, str(REPO / "benchmarks" / "e2e" / "run.py")]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
STAGES = ("decompose", "factor", "apply", "gmres")


def run(*args, check=True):
    done = subprocess.run(
        [*RUN, *args], cwd=REPO, capture_output=True, text=True, timeout=170
    )
    if check:
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All four workloads, untraced and traced, at the smoke size."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    run("--smoke", "--trace", "both", "--out", str(out))
    return out, json.loads(out.read_text())


def stage_parts(result, stage):
    """Every layer's seconds of one traced stage, declared or not."""
    both = {**result["per_layer"], **result["trace"]}
    pat = re.compile(rf"^(\w+\.{stage}_self_s|machine\.{stage}_(wait|fork|pickle)_s)$")
    return {k: v["median"] for k, v in both.items() if pat.match(k)}


class TestDeclaration:
    def test_contract_shape(self):
        assert set(SPEC) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
        }
        assert END_TO_END["setup_s"]["unit"] == "s"
        assert END_TO_END["setup_s"]["better"] == "lower"
        names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
        assert len(names) == len(set(names))
        assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
        assert all(0 < m["bound"] <= 0.25 for m in END_TO_END.values())
        assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
        # the driver makes 4 + 22 * workloads runs inside 3420 s
        assert 1 <= SPEC["run_seconds"] <= 60

    def test_result_files_escape_the_bench_ignore_pattern(self):
        results = REPO / "benchmarks" / "e2e" / "results"
        assert not list(results.glob("BENCH_*.json"))


class TestSmokeRun:
    def test_code_and_declaration_agree_on_names(self, smoke):
        _path, doc = smoke
        assert list(doc["workloads"]) == WORKLOADS
        for name, result in doc["workloads"].items():
            assert set(result["end_to_end"]) == set(END_TO_END), name
            assert set(result["per_layer"]) == set(PER_LAYER), name
            for block, spec in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
                for metric, s in result[block].items():
                    assert s["unit"] == spec[metric]["unit"]

    def test_every_metric_is_finite_and_end_to_end_is_never_zero(self, smoke):
        _path, doc = smoke
        for name, result in doc["workloads"].items():
            for block in ("end_to_end", "per_layer"):
                for metric, s in result[block].items():
                    for key in ("value", "median", "q1", "q3"):
                        assert math.isfinite(s[key]), (name, metric, key)
                    assert s["n"] >= 1
            assert all(s["value"] > 0 for s in result["end_to_end"].values()), name
            assert result["failed"] == 0 and result["correct"], result["failures"]
            assert result["attempted"] > 0

    def test_host_stamp(self, smoke):
        _path, doc = smoke
        assert {"cpu_count", "loadavg", "python", "numpy", "commit"} <= set(doc["host"])

    @pytest.mark.parametrize("stage", STAGES)
    def test_layer_self_times_sum_to_the_traced_span(self, smoke, stage):
        _path, doc = smoke
        for name, result in doc["workloads"].items():
            span = result["trace"][f"bench.{stage}_span_s"]["median"]
            total = sum(stage_parts(result, stage).values())
            assert total == pytest.approx(span, rel=0.05), (name, stage)

    def test_each_workload_stresses_the_layer_it_was_chosen_for(self, smoke):
        _path, doc = smoke
        layer = {n: {k: v["median"] for k, v in r["per_layer"].items()}
                 for n, r in doc["workloads"].items()}
        for stage in ("factor", "apply"):
            parts = stage_parts(doc["workloads"]["g0-proc-p2"], stage)
            waiting = sum(parts[f"machine.{stage}_{k}_s"] for k in ("wait", "fork", "pickle"))
            assert waiting > 0.5 * sum(parts.values()), stage
        vec = layer["g0-vec-p1"]
        assert vec["kernels.factor_self_s"] > 0
        assert vec["machine.factor_pardo_calls"] == 0 == vec["machine.apply_pardo_calls"]
        assert vec["machine.factor_self_s"] < 0.01 * vec["ilu.factor_self_s"]
        for name in ("g0-sim-p4", "torso-sim-p4"):
            sim = layer[name]
            # backend resolution only: microseconds
            assert sim["kernels.factor_self_s"] < 0.001 * sim["ilu.factor_self_s"]
            assert sim["machine.modeled_factor_s"] > 0
            assert sim["machine.factor_pardo_calls"] > 0
        assert layer["g0-proc-p2"]["machine.supervision_ratio"] > 0
        assert layer["torso-sim-p4"]["ilu.num_levels"] > layer["g0-sim-p4"]["ilu.num_levels"]


class TestDriverContract:
    def test_last_line_is_the_drivers_object(self):
        done = run("--smoke", "--workload", "g0-vec-p1", "--seed", "3", "--seconds", "0",
                   "--trace", "0")
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert set(last["metrics"]) == set(END_TO_END)
        for metric, v in last["metrics"].items():
            assert set(v) == {"value", "unit"} and v["unit"] == END_TO_END[metric]["unit"]
            assert v["value"] > 0

    def test_traced_run_reports_every_per_layer_metric(self):
        done = run("--smoke", "--workload", "g0-vec-p1", "--seconds", "0", "--trace", "1")
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last["metrics"]) == set(PER_LAYER)

    def test_a_failed_check_is_counted_and_changes_the_exit_code(self):
        done = run("--smoke", "--workload", "g0-vec-p1", "--corrupt-oracle", check=False)
        assert done.returncode != 0
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert last["correct"] is False
        assert 0 < last["failed"] <= last["attempted"]
        assert "FAILED factor_s" in done.stdout

    def test_unknown_workload_is_refused(self):
        assert run("--workload", "nope", check=False).returncode != 0


class TestCompare:
    def test_a_file_against_itself_is_within_bounds(self, smoke):
        path, _doc = smoke
        done = run("--compare", str(path), str(path))
        assert "within-bound" in done.stdout and "regressed" not in done.stdout

    def test_a_slower_median_regresses_and_a_moved_count_differs(self, smoke, tmp_path):
        path, doc = smoke
        slow = json.loads(json.dumps(doc))
        for key in ("value", "median", "q1", "q3"):
            slow["workloads"]["g0-sim-p4"]["end_to_end"]["factor_s"][key] *= 1.5
        slow["workloads"]["g0-vec-p1"]["per_layer"]["ilu.fill_nnz"]["value"] += 1
        other = tmp_path / "slow.json"
        other.write_text(json.dumps(slow))
        done = run("--compare", str(path), str(other), check=False)
        assert done.returncode == 1
        assert re.search(r"^factor_s .* 1\.500 +regressed$", done.stdout, re.M)
        assert re.search(r"^ilu\.fill_nnz .* DIFFERS$", done.stdout, re.M)

    def test_a_spread_wider_than_the_bound_is_unresolved(self, smoke, tmp_path):
        path, doc = smoke
        noisy = json.loads(json.dumps(doc))
        s = noisy["workloads"]["g0-sim-p4"]["end_to_end"]["apply_s"]
        s["q1"], s["q3"] = 0.5 * s["median"], 1.5 * s["median"]
        other = tmp_path / "noisy.json"
        other.write_text(json.dumps(noisy))
        done = run("--compare", str(path), str(other))
        assert re.search(r"^apply_s .* unresolved$", done.stdout, re.M)
