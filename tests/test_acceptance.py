"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Monte Carlo criteria use the fixed default seed so the suite
is deterministic; tolerances are wide enough to cover sampling noise at
the stated trial counts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rowsynth import (
    DEFAULT_SEED,
    ExperimentConfig,
    Schedule,
    apply_schedule,
    binary_runs_time,
    closed_form_rotation,
    completion_time,
    enumerate_interleavings_min,
    estimate_max_lower_bound,
    estimate_policy_time,
    estimate_optimal_time,
    estimate_solo_time,
    lcs_upper_bound,
    lf1_matrix,
    max_bound_correction,
    no_lookahead_floor_check,
    policy_catalog,
    rotation_moments,
    simulate,
    solo_time,
    stationary,
    synthesis_rate,
    t_star,
)
from rowsynth.experiments import EXPERIMENT_COLUMNS, rows_to_csv, run_experiment_row

X1 = (1, 3, 2, 2)
Y1 = (0, 1, 3, 0)
SEED = DEFAULT_SEED

FIGURE_PI = [Fraction(v) for v in (
    "1/7", "1/21", "11/84", "1/28", "1/18", "13/126", "11/252", "23/252",
    "13/252", "1/36", "19/252", "13/252", "0", "1/14", "0", "1/14",
)]


def _estimate(q, length, trials, policy):
    return estimate_policy_time(ExperimentConfig(q, length, trials, SEED, policy))


@pytest.fixture(scope="module")
def lf_q2():
    return _estimate(2, 2000, 200, "lf")


@pytest.fixture(scope="module")
def lf_q4():
    return _estimate(4, 2000, 200, "lf")


@pytest.fixture(scope="module")
def xf_q2():
    return _estimate(2, 2000, 200, "x-first")


@pytest.fixture(scope="module")
def lf1_q2():
    return _estimate(2, 2000, 200, "lf1")


def test_c01_ordering_example_fidelity():
    a = Schedule.from_string("Y,X,-,X,-,Y,X,Y,Y,-,X")
    b = Schedule.from_string("Y,Y,-,Y,Y,X,-,X,-,-,X,-,-,-,X")
    assert apply_schedule(X1, Y1, a, 4) == 11
    assert apply_schedule(X1, Y1, b, 4) == 15
    print("ACCEPTANCE 1 PASS - verbatim example schedules score 11 and 15")


def test_c02_solver_equals_interleaving_oracle():
    for x in product(range(2), repeat=5):
        for y in product(range(2), repeat=5):
            assert t_star(x, y, 2) == enumerate_interleavings_min(x, y, 2)
    rng = np.random.default_rng(SEED)
    for q in (3, 4):
        for _ in range(200):
            x = tuple(rng.integers(0, q, size=6).tolist())
            y = tuple(rng.integers(0, q, size=6).tolist())
            assert t_star(x, y, q) == enumerate_interleavings_min(x, y, q)
    assert t_star(X1, Y1, 4) == enumerate_interleavings_min(X1, Y1, 4) == 11
    print("ACCEPTANCE 2 PASS - solver matches brute force on 1024 binary pairs, "
          "400 random pairs (q=3,4), and the worked example")


def test_c03_rotation_moments_match_closed_forms():
    for q in (2, 3, 4, 5):
        stats = rotation_moments(q, 100_000, SEED)
        vx, vy, t = (float(v) for v in closed_form_rotation(q))
        assert stats.mean_vx == pytest.approx(vx, rel=0.02)
        assert stats.mean_vy == pytest.approx(vy, rel=0.02)
        assert stats.mean_t == pytest.approx(t, rel=0.02)
        assert abs(stats.ratio_t_vx - (q + 1) / 2) <= 4 * stats.stderr_ratio
        assert abs(stats.mean_diff - 2 * q / (q + 1)) <= 4 * stats.stderr_diff
    print("ACCEPTANCE 3 PASS - rotation moments within 2% of closed forms for "
          "q=2..5; ratio and difference within 4 standard errors")


def test_c04_laggard_first_slope(lf_q2, lf_q4):
    assert 2.475 <= lf_q2.slope <= 2.525
    assert 3.465 <= lf_q4.slope <= 3.535
    print(f"ACCEPTANCE 4 PASS - laggard-first slopes {lf_q2.slope:.4f} (q=2, "
          f"target 2.5) and {lf_q4.slope:.4f} (q=4, target 3.5)")


def test_c05_x_first_slope(xf_q2):
    assert 2.673 <= xf_q2.slope <= 2.727
    print(f"ACCEPTANCE 5 PASS - x-first slope {xf_q2.slope:.4f} (target 2.7)")


def test_c06_lookahead_chain_and_slope(lf1_q2):
    matrix = lf1_matrix()
    known = {
        0: {13: Fraction(1, 2), 15: Fraction(1, 2)},
        1: {10: Fraction(1, 2), 11: Fraction(1, 2)},
        2: {5: Fraction(1, 2), 7: Fraction(1, 2)},
        3: {4: Fraction(1, 2), 6: Fraction(1, 2)},
        4: {9: Fraction(1, 2), 11: Fraction(1, 2)},
        5: {8: Fraction(1, 2), 10: Fraction(1, 2)},
        6: {1: Fraction(1, 2), 3: Fraction(1, 2)},
        7: {0: Fraction(1, 2), 2: Fraction(1, 2)},
        8: {6: Fraction(1, 2), 7: Fraction(1, 2)},
        9: {2: Fraction(1, 2), 3: Fraction(1, 2)},
        10: {4: Fraction(1, 2), 5: Fraction(1, 2)},
        11: {0: Fraction(1, 2), 1: Fraction(1, 2)},
        12: {3: Fraction(1)},
        13: {2: Fraction(1)},
        14: {1: Fraction(1)},
        15: {0: Fraction(1)},
    }
    for s in range(16):
        assert matrix[s] == [known[s].get(c, Fraction(0)) for c in range(16)]
    pi = stationary(matrix)
    for value, expected in zip(pi, FIGURE_PI):
        assert abs(float(value) - float(expected)) <= 1e-10
    assert pi[12] == 0 and pi[14] == 0
    assert abs(float(synthesis_rate(pi)) - 6 / 7) <= 1e-12
    assert 7 / 3 - 0.025 <= lf1_q2.slope <= 7 / 3 + 0.025
    print(f"ACCEPTANCE 6 PASS - lookahead chain matrix, stationary law and 6/7 "
          f"rate exact; measured slope {lf1_q2.slope:.4f} (target {7 / 3:.4f})")


def test_c07_no_lookahead_floor():
    checks = no_lookahead_floor_check(
        2, 2000, 200, ["x-first", "y-first", "lf", "round-robin", "random"], SEED)
    for check in checks:
        assert check.passed, f"{check.policy}: slope {check.slope:.4f} under floor"
    slopes = ", ".join(f"{c.policy}={c.slope:.4f}" for c in checks)
    print(f"ACCEPTANCE 7 PASS - all depth-0 policies clear floor 2.5: {slopes}")


def test_c08_runs_formula_exhaustive():
    checked = 0
    for n in range(1, 13):
        for z in product(range(2), repeat=n):
            assert binary_runs_time(z) == solo_time(z, 2)
            checked += 1
    assert checked == 8190
    print("ACCEPTANCE 8 PASS - runs formula equals slot accounting on all "
          "8190 binary strands up to length 12")


def test_c09_lcs_bound():
    assert lcs_upper_bound((0, 1, 1, 0), (0, 1, 0, 0)) == 10
    rng = np.random.default_rng(SEED)
    for _ in range(500):
        x = tuple(rng.integers(0, 2, size=64).tolist())
        y = tuple(rng.integers(0, 2, size=64).tolist())
        assert t_star(x, y, 2) <= lcs_upper_bound(x, y)
    print("ACCEPTANCE 9 PASS - worked pair bounds to 10; optimum under the "
          "LCS bound on 500 random pairs at L=64")


def test_c10_solo_baseline_and_max_bound():
    for q in (2, 4):
        est = estimate_solo_time(q, 2000, 200, SEED)
        target = (q + 1) / 2
        assert abs(est.slope - target) <= 0.01 * target
    est = estimate_max_lower_bound(4, 2000, 500, SEED)
    correction = max_bound_correction(4, 2000)
    lift = est.mean - 2.5 * 2000
    assert abs(lift - correction) <= 0.15 * correction, (
        f"measured lift {lift:.2f} vs correction {correction:.2f}")
    print(f"ACCEPTANCE 10 PASS - solo slopes within 1%; max-of-solos lift "
          f"{lift:.2f} vs predicted {correction:.2f}")


def test_c11_optimal_slope_bracket():
    config = ExperimentConfig(2, 200, 100, SEED)
    opt = estimate_optimal_time(config)
    lf_small = estimate_policy_time(ExperimentConfig(2, 200, 100, SEED, "lf"))
    assert 2.0 <= opt.slope <= 2.5
    assert all(o <= p for o, p in zip(opt.times, lf_small.times))
    print(f"ACCEPTANCE 11 PASS - measured optimal slope {opt.slope:.4f} "
          f"(simulation-conjectured value 2.16) inside [2.0, 2.5], "
          f"<= laggard-first {lf_small.slope:.4f} on shared instances")


def test_c12_property_suite():
    rng = np.random.default_rng(SEED)
    catalog = policy_catalog()
    for k in range(1000):
        q = int(rng.choice((2, 3, 4)))
        length = int(rng.integers(1, 65))
        x = tuple(rng.integers(0, q, size=length).tolist())
        y = tuple(rng.integers(0, q, size=length).tolist())
        opt = t_star(x, y, q)
        assert max(solo_time(x, q), solo_time(y, q)) <= opt
        for policy in catalog:
            if policy.name == "lf1" and q != 2:
                continue
            assert opt <= completion_time(x, y, policy, q, rng)
        probe = catalog[k % len(catalog)]
        if probe.name == "lf1" and q != 2:
            probe = catalog[0]
        _, trace = simulate(x, y, probe, q, rng)
        for rec in trace:
            if not rec.action.is_advance:
                assert rec.a != 0 and rec.b != 0
    cfg = ExperimentConfig(2, 400, 24, SEED, "random")
    outputs = {
        rows_to_csv([run_experiment_row(cfg, workers=w)], EXPERIMENT_COLUMNS)
        for w in (1, 2, 3)
    }
    assert len(outputs) == 1
    print("ACCEPTANCE 12 PASS - sandwich and no-bad-idle hold on 1000 random "
          "instances; experiment CSV byte-identical across 1-3 workers")
