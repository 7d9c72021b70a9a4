"""Smoke runs of the demos as scripts, the way a reader runs them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


# demo script -> text its output must contain
DEMOS = {
    "01_scheduling_basics.py": ["optimal completion time = 11", "witness validates: True"],
    "03_rotation_analysis.py": [],
    "04_lookahead_chain.py": ["6/7"],
    "05_optimal_and_bounds.py": [],
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name):
    result = run_demo(name)
    assert result.returncode == 0, result.stderr
    for text in DEMOS[name]:
        assert text in result.stdout
