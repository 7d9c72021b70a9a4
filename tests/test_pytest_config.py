"""The repository's pytest configuration reports a failing property as a test failure."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_failing_property_is_one_failure_not_an_internal_error(tmp_path):
    """Reporting a failing example loads modules whose deprecation warnings must not abort the run."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
