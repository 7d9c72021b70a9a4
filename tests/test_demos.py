"""Smoke runs of the demos as scripts, the way a reader runs them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def run_demo(name: str) -> subprocess.CompletedProcess:
    return run_python(str(ROOT / "demos" / name))


# demo script -> text its output must contain
DEMOS = {
    "01_scheduling_basics.py": ["optimal completion time = 11", "witness validates: True"],
    "02_policy_comparison.py": ["q = 2, L = 2000, 120 trials per policy"],
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


def test_readme_library_quick_start():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    # t_star, the brute-force optimum and the handwritten schedule's score
    assert result.stdout.splitlines()[1:] == ["11", "11", "11"]
