"""Smoke test of the benchmark: every workload at minimal size, untraced and traced.

Checks the result line's schema against BENCHMARK.json and that no op
failed. Run from the repository root (about two minutes on two cores):

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--requests", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, proc.stderr
    spec = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_refuses_without_program():
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", "mc-policies", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
