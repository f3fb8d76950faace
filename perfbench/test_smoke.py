"""Smoke test of the benchmark itself; not part of the simulator's test suite.

Runs every workload at a tiny size in both modes and checks that the result
line names every metric of BENCHMARK.json with its unit.  Run from the
repository root:

    python3 -m pytest -q perfbench
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
COMMAND = [sys.executable, *SPEC["command"][1:]]
# every workload run.py offers, including any left out of BENCHMARK.json
WORKLOADS = ("svm_sweep", "mlp_mnist_crd", "svm_unbalanced_decay")


def _bench(cwd, workload, trace, *extra):
    return subprocess.run(
        COMMAND + ["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert f"{m['name']} = " in proc.stdout


def test_benchmark_workloads_are_offered_by_run_py():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_exits_without_a_result_when_the_simulator_is_absent():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = _bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
