"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3, seconds: float = 0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


def assert_metrics(result: dict, spec: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert math.isfinite(reported["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run(workload, 0))
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts(workload):
    first, second = result_of(run(workload, 1)), result_of(run(workload, 1))
    assert_metrics(first, SPEC["per_layer"])
    counts = {name for name, m in first["metrics"].items() if m["unit"] in ("count", "ratio")}
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_counts_do_not_depend_on_run_length():
    short, long = result_of(run("scan", 0)), result_of(run("scan", 0, seconds=2))
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
