"""Smoke test of the end-to-end benchmark at its ``--quick`` size.

Outside the tier-1 test paths; run it with

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
#: end-to-end metrics that are exact for a given seed
DETERMINISTIC = (
    "schedule_latency_ms.p50",
    "schedule_latency_ms.p99",
    "msgs_per_op",
    "bytes_per_op",
)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_metric_and_repeats_exactly(workload):
    first, second = _result(workload, 0), _result(workload, 0)
    for result in (first, second):
        assert result["correct"]
        assert result["attempted"] >= 1
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert got == _units(CONFIG["end_to_end"])
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_reproduces_untraced(workload):
    result = _result(workload, 1)
    # correct covers "the traced episodes reproduced the untraced ones".
    assert result["correct"]
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == _units(CONFIG["per_layer"])
    assert abs(result["metrics"]["ledger.coverage_pct"]["value"] - 100) <= 1
    assert (HERE / "out" / f"layers-{workload}.trace.json").exists()


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "steady", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
