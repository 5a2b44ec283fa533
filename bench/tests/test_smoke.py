"""Smoke test of the benchmark: every workload at its smallest size.

    python3 -m pytest -q bench/tests

Takes a few minutes: each catalog-warm run generates every candidate graph
three times (its repeated set-up), and the traced runs use fixed prefixes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_metric_table():
    assert set(WORKLOADS) == set(metrics.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]} == {
        k: v[:3] for k, v in metrics.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        k: v[:2] for k, v in metrics.PER_LAYER.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("traced", [0, 1])
def test_workload_prints_every_metric(workload, traced):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", str(traced))
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if traced else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not traced:
            assert got["value"] > 0
    assert "error_rate" in proc.stdout and " 0 failed of " in proc.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
