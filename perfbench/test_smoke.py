"""Smoke test of the benchmark: every workload, both modes, at the smallest
run length (one round each).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "fly": ["cycle_ms_p50", "cycle_ms_p90", "cycle_samples", "cycles_per_s"],
    "collect": ["corpus_frames_per_s", "collision_windows_per_s"],
    "train": ["vae_train_samples_per_s", "cpn_train_windows_per_s", "e2e_train_windows_per_s"],
}


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert printed == set(NAMED[workload]) | {"ops_attempted", "ops_failed"}
    assert any(line.startswith("env ") for line in lines)
    assert "DIFFERENT" not in proc.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "collect", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
