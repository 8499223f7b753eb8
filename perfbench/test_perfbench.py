"""Tiny runs of every workload, checking the benchmark's own contract.

Run with ``python3 -m pytest perfbench``.  Each workload runs once untraced
and twice traced on a short prefix of ops: every metric named in
BENCHMARK.json must be printed with its unit, no op may fail, and the
deterministic per-layer values (everything not measured in seconds) and
``outputs_sha256`` must repeat exactly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Ops per tiny run: enough to reach every shape or family once.
TINY_PREFIX = {"metric-cli": 6, "ramsey-cores": 12, "small-batch": 12}
EXTRA = {"metric-cli": {"verify_p50_s"}, "ramsey-cores": set(), "small-batch": {"negative_p50_s"}}


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--prefix", str(TINY_PREFIX[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(info_line), json.loads(result_line)


def assert_metrics(metrics, specs):
    assert set(metrics) == {m["name"] for m in specs}
    for m in specs:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


def assert_clean(info, result):
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert info["metrics"]["fail_ratio"] == {"value": 0.0, "unit": "ratio"}


@pytest.mark.parametrize("workload", sorted(TINY_PREFIX))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    info, result = parse(run_bench(workload, 0))
    assert_clean(info, result)
    assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert {"op_samples", "fail_ratio"} | EXTRA[workload] == set(info["metrics"])
    assert len(info["outputs_sha256"]) == 64


@pytest.mark.parametrize("workload", sorted(TINY_PREFIX))
def test_traced_runs_repeat_counters_and_outputs(workload):
    runs = [parse(run_bench(workload, 1)) for _ in range(2)]
    for info, result in runs:
        assert_clean(info, result)
        assert_metrics(result["metrics"], SPEC["per_layer"])
    (info_a, result_a), (info_b, result_b) = runs
    assert info_a["outputs_sha256"] == info_b["outputs_sha256"]
    counters = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    counters.remove("trace.overhead_ratio")
    for name in counters:
        assert result_a["metrics"][name] == result_b["metrics"][name], name
    assert info_a["metrics"]["op_samples"]["value"] == TINY_PREFIX[workload]


def test_traced_and_untraced_outputs_agree():
    untraced, _ = parse(run_bench("small-batch", 0))
    traced, _ = parse(run_bench("small-batch", 1))
    assert untraced["outputs_sha256"] == traced["outputs_sha256"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("ramsey-cores", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
