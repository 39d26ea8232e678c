"""Smoke test of the benchmark: every workload once at the tiny scale,
untraced and traced, checking that every metric of BENCHMARK.json is emitted
with its unit and that no job failed.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["failed_frac"] == 0
    assert set(report["env"]) == {"python", "nproc", "git_sha", "numpy"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert report["missing_entry_points"] == []


def test_every_job_has_a_golden():
    goldens = json.loads((BENCH / "goldens.json").read_text())["jobs"]
    keys = {wl.cli_key(["--version"])}
    for scale in wl.SCALES:
        for v in range(wl.VARIANTS):
            keys.update(wl.cli_key(a) for w in ("verify-cold", "seq-io") for a in wl.cli_jobs(w, v, scale))
            keys.update(wl.warm_key(n, b) for n, b in wl.warm_plan(v, scale))
    assert keys <= set(goldens)
    assert not any("--jobs" in k or "--cache-dir" in k for k in goldens)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
