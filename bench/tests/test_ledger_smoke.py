"""Tiny-scale runs of every workload through the benchmark's command."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH_DIR, REPO

RUN_PY = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _run(*args: str, cwd: str = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = _result(
        _run("--workload", workload, "--seed", "3", "--seconds", "2",
             "--trace", "0", "--scale", "0.05")
    )
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["build_procs2_plaw", "serve_point_zipf"])
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    result = _result(
        _run("--workload", workload, "--seed", "3", "--seconds", "2",
             "--trace", "1", "--scale", "0.05")
    )
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    if workload.startswith("build"):
        assert result["metrics"]["search.settled"]["value"] > 0
        assert result["metrics"]["procs.messages"]["value"] > 0
    else:
        assert result["metrics"]["server.requests"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: exit non-zero, print no result."""
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "build_serial_plaw", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
