"""Offset chain, rotation analysis, and the 16-state lookahead chain."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from rowsynth import (
    ChainEvent,
    ChainStep,
    OffsetState,
    TieDecision,
    chain_step,
    closed_form_rotation,
    decompose_rotations,
    drift_series,
    get_policy,
    lf1_matrix,
    rotation_moments,
    simulate,
    stationary,
    synthesis_rate,
    visit_values,
)
from conftest import random_pair

HALF = Fraction(1, 2)
ONE = Fraction(1)

# known transition structure of the binary lookahead chain, rows indexed 8a+4b+2c+d
EXPECTED_LF1_ROWS = {
    0: {13: HALF, 15: HALF},
    1: {10: HALF, 11: HALF},
    2: {5: HALF, 7: HALF},
    3: {4: HALF, 6: HALF},
    4: {9: HALF, 11: HALF},
    5: {8: HALF, 10: HALF},
    6: {1: HALF, 3: HALF},
    7: {0: HALF, 2: HALF},
    8: {6: HALF, 7: HALF},
    9: {2: HALF, 3: HALF},
    10: {4: HALF, 5: HALF},
    11: {0: HALF, 1: HALF},
    12: {3: ONE},
    13: {2: ONE},
    14: {1: ONE},
    15: {0: ONE},
}

EXPECTED_PI = [Fraction(v) for v in (
    "1/7", "1/21", "11/84", "1/28", "1/18", "13/126", "11/252", "23/252",
    "13/252", "1/36", "19/252", "13/252", "0", "1/14", "0", "1/14",
)]


class _FixedDraws:
    """Stub rng serving a queue of predetermined draws."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, n):
        return self.values.pop(0)


class TestChainStep:
    def test_tie_advancing_x(self):
        state, event = chain_step(OffsetState(0, 0), 2, TieDecision.ADVANCE_X, _FixedDraws([0]))
        assert state == (0, 1)
        assert event is ChainEvent.ADVANCE_X

    def test_interior_double_decrement(self):
        state, event = chain_step(OffsetState(1, 1), 2, TieDecision.ADVANCE_X, _FixedDraws([]))
        assert state == (0, 0)
        assert event is ChainEvent.IDLE

    def test_tie_resets_other_offset_to_q_minus_one(self):
        state, _ = chain_step(OffsetState(0, 0), 5, TieDecision.ADVANCE_X, _FixedDraws([2]))
        assert state == (2, 4)
        state, _ = chain_step(OffsetState(0, 0), 5, TieDecision.ADVANCE_Y, _FixedDraws([3]))
        assert state == (4, 3)

    def test_one_sided_advances(self):
        state, event = chain_step(OffsetState(0, 3), 4, TieDecision.ADVANCE_X, _FixedDraws([1]))
        assert state == (1, 2)
        assert event is ChainEvent.ADVANCE_X
        state, event = chain_step(OffsetState(2, 0), 4, TieDecision.ADVANCE_X, _FixedDraws([3]))
        assert state == (1, 3)
        assert event is ChainEvent.ADVANCE_Y

    def test_callable_tie_rule(self):
        state, event = chain_step(OffsetState(0, 0), 2,
                                  lambda: TieDecision.ADVANCE_Y, _FixedDraws([1]))
        assert state == (1, 1)
        assert event is ChainEvent.ADVANCE_Y


class TestChainMatchesSimulator:
    def test_coupled_replay_gives_identical_streams(self, rng):
        # drive the chain with the fresh offsets the simulated strands imply;
        # state and event streams must coincide while both strands are live
        for _ in range(30):
            q = int(rng.integers(2, 6))
            x, y = random_pair(rng, q, 20)
            _, trace = simulate(x, y, get_policy("x-first"), q)
            recs = trace.records
            cut = len(recs)
            for k, rec in enumerate(recs):
                if rec.a is None or rec.b is None:
                    cut = k
                    break
            for k in range(cut - 1):
                cur, nxt = recs[k], recs[k + 1]
                draws = []
                if cur.action.strand == 1:
                    draws = [nxt.a]
                elif cur.action.strand == 2:
                    draws = [nxt.b]
                state, event = chain_step(OffsetState(cur.a, cur.b), q,
                                          TieDecision.ADVANCE_X, _FixedDraws(draws))
                assert state == (nxt.a, nxt.b)
                expected = {1: ChainEvent.ADVANCE_X, 2: ChainEvent.ADVANCE_Y,
                            None: ChainEvent.IDLE}[cur.action.strand]
                assert event is expected


class TestDecomposeRotations:
    def test_identical_binary_pair_trace(self):
        # slots 1-3 form the only complete rotation: tie, forced advance, forced advance
        _, trace = simulate((0, 1, 1), (0, 1, 1), get_policy("x-first"), 2)
        rotations = decompose_rotations(trace)
        assert len(rotations) == 1
        assert (rotations[0].v_x, rotations[0].v_y, rotations[0].t_len) == (2, 1, 3)

    def test_stream_without_ties_is_empty(self):
        _, trace = simulate((1,), (), get_policy("x-first"), 2)
        assert decompose_rotations(trace) == []

    def test_counts_conserve_against_raw_stream(self):
        draws = np.random.default_rng(3).integers(0, 3, size=4000).tolist()
        stub = _FixedDraws(draws)
        state = OffsetState(0, 0)
        steps = []
        while stub.values:
            nxt, event = chain_step(state, 3, TieDecision.ADVANCE_X, stub)
            steps.append(ChainStep(state.a, state.b, event.value if event.value else None))
            state = nxt
        rotations = decompose_rotations(steps)
        assert rotations, "expected at least one complete rotation"
        assert all(r.t_len >= r.v_x + r.v_y for r in rotations)
        assert all(r.v_x >= 1 or r.v_y >= 1 for r in rotations)
        spanned = sum(r.t_len for r in rotations)
        first_tie = next(k for k, s in enumerate(steps) if (s.a, s.b) == (0, 0))
        in_span = steps[first_tie:first_tie + spanned]
        assert sum(r.v_x for r in rotations) == sum(1 for s in in_span if s.advanced == 1)
        assert sum(r.v_y for r in rotations) == sum(1 for s in in_span if s.advanced == 2)


class TestRotationMoments:
    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            rotation_moments(2, 0, 1)

    def test_slots_dominate_advances(self):
        stats = rotation_moments(3, 500, 11)
        assert stats.mean_t >= stats.mean_vx + stats.mean_vy

    def test_deterministic_given_seed(self):
        assert rotation_moments(2, 300, 42) == rotation_moments(2, 300, 42)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_close_to_closed_forms(self, q):
        stats = rotation_moments(q, 30_000, 7)
        vx, vy, t = closed_form_rotation(q)
        assert stats.mean_vx == pytest.approx(float(vx), rel=0.05)
        assert stats.mean_vy == pytest.approx(float(vy), rel=0.10)
        assert stats.mean_t == pytest.approx(float(t), rel=0.05)


# astuple(rotation_moments(q, 400, 2026, tie)), pinned from the two hand-written rotation loops
PINNED_ROTATION_STATS = {
    ("ADVANCE_X", 2): (400, 1.6375, 0.3525, 2.5225, 0.6860937500000004, 0.44824375000000005,
                       1.2594937499999999, 0.46528125, 0.8119062499999998),
    ("ADVANCE_X", 3): (400, 2.335, 0.8, 4.645, 2.0977750000000004, 1.605, 8.038975, 1.6245,
                       3.7289250000000003),
    ("ADVANCE_X", 4): (400, 2.715, 1.105, 6.73, 3.3887750000000008, 2.618975, 18.4321,
                       2.6149250000000004, 7.2555499999999995),
    ("ADVANCE_X", 5): (400, 3.22, 1.55, 9.58, 4.486599999999999, 4.157499999999999,
                       40.78360000000001, 3.854, 12.594899999999999),
    ("ADVANCE_Y", 2): (400, 0.3525, 1.6375, 2.5225, 0.44824375000000005, 0.6860937500000004,
                       1.2594937499999999, 0.46528125, 0.7258187500000001),
    ("ADVANCE_Y", 3): (400, 0.8, 2.335, 4.645, 1.605, 2.0977750000000004, 8.038975, 1.6245,
                       3.4840000000000004),
    ("ADVANCE_Y", 4): (400, 1.105, 2.715, 6.73, 2.618975, 3.3887750000000008, 18.4321,
                       2.6149250000000004, 6.725849999999999),
    ("ADVANCE_Y", 5): (400, 1.55, 3.22, 9.58, 4.157499999999999, 4.486599999999999,
                       40.78360000000001, 3.854, 12.526),
}


@pytest.mark.parametrize("tie,q", sorted(PINNED_ROTATION_STATS))
def test_pinned_rotation_stats(tie, q):
    stats = rotation_moments(q, 400, 2026, TieDecision[tie])
    assert dataclasses.astuple(stats) == PINNED_ROTATION_STATS[tie, q]


class TestClosedFormRotation:
    def test_binary(self):
        assert closed_form_rotation(2) == (Fraction(5, 3), Fraction(1, 3), Fraction(5, 2))

    def test_ternary(self):
        assert closed_form_rotation(3) == (Fraction(9, 4), Fraction(3, 4), Fraction(9, 2))

    def test_quaternary(self):
        assert closed_form_rotation(4) == (Fraction(14, 5), Fraction(6, 5), Fraction(7))

    @pytest.mark.parametrize("q", list(range(2, 65)))
    def test_internal_consistency(self, q):
        vx, vy, t = closed_form_rotation(q)
        assert t == Fraction(q + 1, 2) * vx
        assert vx - vy == Fraction(2 * q, q + 1)
        assert vx + vy == q


class TestVisitValues:
    def test_binary_values(self):
        a_side, b_side = visit_values(2)
        assert a_side == {1: Fraction(4, 3)}
        assert b_side == {1: Fraction(2, 3)}

    def test_linear_recurrence_q8(self):
        a_side, _ = visit_values(8)
        for b in range(2, 7):
            assert a_side[b + 1] == 2 * a_side[b] - a_side[b - 1]

    @pytest.mark.parametrize("q", list(range(2, 11)))
    def test_first_step_identity_recovers_rotation_mean(self, q):
        a_side, _ = visit_values(q)
        first_step = 1 + Fraction(1, q) * sum(a_side[r] for r in range(1, q))
        assert first_step == closed_form_rotation(q)[0]


class TestLf1Matrix:
    def test_matches_known_chain_entry_for_entry(self):
        matrix = lf1_matrix()
        for s in range(16):
            expected_row = [EXPECTED_LF1_ROWS[s].get(c, Fraction(0)) for c in range(16)]
            assert matrix[s] == expected_row, f"row {s} differs"

    def test_rows_are_stochastic(self):
        assert all(sum(row) == 1 for row in lf1_matrix())

    def test_double_idle_row_is_deterministic(self):
        assert lf1_matrix()[12][3] == 1

    def test_double_tie_row_splits_on_fresh_lookahead(self):
        row = lf1_matrix()[0]
        assert row[13] == HALF and row[15] == HALF


class TestStationary:
    def test_lookahead_chain_exact_values(self):
        pi = stationary(lf1_matrix())
        assert pi == EXPECTED_PI

    def test_transient_states_are_exactly_zero(self):
        pi = stationary(lf1_matrix())
        assert pi[12] == 0 and pi[14] == 0

    def test_single_state_chain(self):
        assert stationary([[Fraction(1)]]) == [Fraction(1)]

    def test_balance_residual(self):
        matrix = np.array(lf1_matrix(), dtype=float)
        pi = np.array([float(v) for v in stationary(lf1_matrix())])
        assert np.max(np.abs(pi @ matrix - pi)) <= 1e-12
        assert abs(pi.sum() - 1.0) <= 1e-12

    def test_float_matrix_path(self):
        pi = stationary([[0.5, 0.5], [0.25, 0.75]])
        assert pi == pytest.approx([1 / 3, 2 / 3], abs=1e-12)

    def test_power_iteration_cross_check(self):
        matrix = np.array(lf1_matrix(), dtype=float)
        dist = np.full(16, 1 / 16)
        for _ in range(400):
            dist = dist @ matrix
        exact = np.array([float(v) for v in stationary(lf1_matrix())])
        assert np.max(np.abs(dist - exact)) <= 1e-10

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            stationary([[Fraction(1, 2), Fraction(1, 4)], [Fraction(1), Fraction(0)]])
        with pytest.raises(ValueError):
            stationary([[0.9, 0.2], [0.5, 0.5]])


class TestSynthesisRate:
    def test_lookahead_chain_rate(self):
        assert synthesis_rate(stationary(lf1_matrix())) == Fraction(6, 7)

    def test_idle_concentration_gives_zero(self):
        pi = [Fraction(0)] * 16
        pi[13] = Fraction(1)
        assert synthesis_rate(pi) == 0

    def test_complement_identity(self):
        pi = stationary(lf1_matrix())
        assert synthesis_rate(pi) == 1 - (pi[12] + pi[13] + pi[14] + pi[15])

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            synthesis_rate([1.0])


class TestDriftSeries:
    def test_rejects_short_runs(self):
        with pytest.raises(ValueError):
            drift_series(2, 5, 1)

    def test_checkpoints_ascend_and_end_at_n(self):
        series = drift_series(2, 1234, 1)
        ns = [n for n, _ in series]
        assert ns == sorted(ns)
        assert ns[-1] == 1234
        assert all(np.isfinite(v) for _, v in series)

    def test_minimal_run_yields_finite_checkpoints(self):
        series = drift_series(2, 10, 1)
        assert len(series) >= 1
        assert all(np.isfinite(v) for _, v in series)

    def test_laggard_rule_keeps_imbalance_tight(self):
        lf_series = drift_series(2, 20_000, 9)
        xf_series = drift_series(2, 20_000, 9, policy="x-first")
        assert lf_series[-1][1] < 5
        assert xf_series[-1][1] > 100
        assert lf_series[-1][1] < xf_series[-1][1] / 20

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            drift_series(2, 100, 1, policy="zigzag")

    @pytest.mark.parametrize("q", [2, 4])
    def test_bounded_growth_at_scale(self, q):
        from rowsynth import DEFAULT_SEED

        series = dict(drift_series(q, 100_000, DEFAULT_SEED))
        assert series[100_000] <= 1.2 * series[1000]

    def test_x_first_drift_slope_is_linear(self):
        # per-rotation imbalance drifts by 2q/(q+1), so the running mean of
        # |d_n| over n rotations approaches n * q/(q+1)
        series = dict(drift_series(2, 100_000, 3, policy="x-first"))
        assert series[100_000] == pytest.approx(100_000 * 2 / 3, rel=0.02)


# drift_series(q, 1000, 2026, policy), pinned from the two hand-written rotation loops
PINNED_DRIFT = {
    ("lf", 2): [(1, 1.0), (2, 1.0), (5, 0.6), (10, 0.6), (20, 0.6), (50, 0.64), (100, 0.68),
                (200, 0.71), (500, 0.75), (1000, 0.756)],
    ("lf", 3): [(1, 2.0), (2, 1.0), (5, 1.0), (10, 1.1), (20, 0.95), (50, 0.98), (100, 0.92),
                (200, 0.88), (500, 0.938), (1000, 0.931)],
    ("x-first", 2): [(1, 1.0), (2, 2.0), (5, 3.8), (10, 6.8), (20, 12.7), (50, 31.12),
                     (100, 63.44), (200, 128.27), (500, 320.806), (1000, 659.304)],
    ("x-first", 3): [(1, 2.0), (2, 3.0), (5, 5.8), (10, 10.5), (20, 18.75), (50, 42.34),
                     (100, 81.6), (200, 154.86), (500, 385.326), (1000, 771.901)],
}


@pytest.mark.parametrize("policy,q", sorted(PINNED_DRIFT))
def test_pinned_drift_series(policy, q):
    assert drift_series(q, 1000, 2026, policy) == PINNED_DRIFT[policy, q]
