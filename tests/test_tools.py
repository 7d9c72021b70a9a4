"""Smoke test of the in-process two-checkout timer, tools/mix.py."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _files(directory: Path) -> set[Path]:
    return set(directory.rglob("*"))


def _mix_against_itself(workload: str) -> dict:
    """One round of one cycle of ``workload``, the checkout timed against itself."""
    before = _files(ROOT / "perfbench") | _files(ROOT / "src")
    proc = subprocess.run([sys.executable, "tools/mix.py", str(ROOT), str(ROOT),
                           "--workload", workload, "--cycles", "1", "--rounds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(base > 0 and change > 0 for base, change in result["kinds"].values())
    assert all(rate > 0 for rate in result["ops_per_s"])
    # the children import each checkout read-only: no bytecode is written into it
    assert _files(ROOT / "perfbench") | _files(ROOT / "src") == before
    return result


def test_mix_times_one_chain_rotations_cycle_against_itself():
    result = _mix_against_itself("chain-rotations")
    # four rotations calls, both drift series, the lookahead chain
    assert sorted(result["kinds"]) == [str(kind) for kind in range(6)]


def test_mix_times_one_exact_slope_cycle_against_itself():
    result = _mix_against_itself("exact-slope")
    # conjecture at q=2, L=200 (four lanes) and at q=4, L=300 (one lane)
    assert sorted(result["kinds"]) == ["0", "1"]
