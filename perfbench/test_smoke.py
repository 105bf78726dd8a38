"""Smoke test of the benchmark: each workload for one short run.

    python3 -m pytest -q perfbench/test_smoke.py

Checks the result line's shape, the metric names and units against
BENCHMARK.json, that only census's non-finite inputs fail, and that the
benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace=0, root=ROOT):
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=root)


def result(workload, trace=0):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, proc.stdout
    assert res["attempted"] >= 1
    return res


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_end_to_end_metrics(workload):
    res = result(workload)
    assert units(res["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    record = json.loads((HERE / "out" / f"run-{workload}-s7-t0.json").read_text())
    if workload == "census":
        # the four non-finite inputs of each 61-operation round, and nothing else
        assert res["failed"] * 61 == res["attempted"] * 4
        assert record["failed_operations"] and all(
            "nonfinite" in label for label in record["failed_operations"])
    else:
        assert res["failed"] == 0


def test_traced_run_prints_per_layer_metrics():
    res = result("census", trace=1)
    assert units(res["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert res["metrics"]["ellipses.classify.float.ms"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("census", root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
