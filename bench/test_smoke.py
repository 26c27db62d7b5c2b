"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest bench/test_smoke.py

Checks that every metric BENCHMARK.json lists is emitted with its unit,
that the traced run's self times account for its wall time, that counts
repeat across traced runs, and that the benchmark refuses to run without
the program's sources.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("constructed_check", "helix_frames", "synth_roundtrip",
             "verify_all", "verify_suites")
LAYERS = ("curves", "frenet", "rectifying", "cli", "verify")


def run(workload, trace, seed=7, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(workload, trace, seed=7):
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    return res["metrics"]


def assert_listed(metrics, listed):
    assert list(metrics) == [m["name"] for m in listed]
    for m in listed:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    metrics = result(workload, trace=0)
    assert_listed(metrics, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(workload):
    metrics = result(workload, trace=1)
    assert_listed(metrics, SPEC["per_layer"])
    value = {k: v["value"] for k, v in metrics.items()}
    accounted = sum(value[f"{layer}.self_s"] for layer in LAYERS)
    assert accounted + value["trace.untraced_s"] == pytest.approx(
        value["trace.wall_s"], rel=1e-9)


def test_counts_repeat_across_traced_runs():
    first, second = (result("helix_frames", trace=1) for _ in range(2))
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert counts
    assert {k: first[k]["value"] for k in counts} == \
        {k: second[k]["value"] for k in counts}


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run("helix_frames", 0, cwd=tmp_path,
               script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
