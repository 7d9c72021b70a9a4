"""Offset chain, rotation analysis, and the 16-state lookahead chain."""

from __future__ import annotations

import dataclasses
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import islice, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowsynth import (
    ChainEvent,
    ChainStep,
    OffsetState,
    RotationStats,
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
from rowsynth import markov
from rowsynth.errors import ConfigError, InvalidStrandError
from rowsynth.markov import _offset_chain, _rotations
from rowsynth.rng import block_stream, master_rng
from conftest import BlockDraws, random_pair

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

    def test_negative_seed_refused(self):
        with pytest.raises(ConfigError, match="got -1"):
            rotation_moments(2, 100, -1)
        with pytest.raises(ConfigError, match="got -1"):
            drift_series(2, 100, -1)

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


# astuple(rotation_moments(q, 400, 2026, policy)), pinned from the two hand-written rotation loops
PINNED_ROTATION_STATS = {
    ("x-first", 2): (400, 1.6375, 0.3525, 2.5225, 0.6860937500000004, 0.44824375000000005,
                     1.2594937499999999, 0.46528125, 0.8119062499999998),
    ("x-first", 3): (400, 2.335, 0.8, 4.645, 2.0977750000000004, 1.605, 8.038975, 1.6245,
                     3.7289250000000003),
    ("x-first", 4): (400, 2.715, 1.105, 6.73, 3.3887750000000008, 2.618975, 18.4321,
                     2.6149250000000004, 7.2555499999999995),
    ("x-first", 5): (400, 3.22, 1.55, 9.58, 4.486599999999999, 4.157499999999999,
                     40.78360000000001, 3.854, 12.594899999999999),
    ("y-first", 2): (400, 0.3525, 1.6375, 2.5225, 0.44824375000000005, 0.6860937500000004,
                     1.2594937499999999, 0.46528125, 0.7258187500000001),
    ("y-first", 3): (400, 0.8, 2.335, 4.645, 1.605, 2.0977750000000004, 8.038975, 1.6245,
                     3.4840000000000004),
    ("y-first", 4): (400, 1.105, 2.715, 6.73, 2.618975, 3.3887750000000008, 18.4321,
                     2.6149250000000004, 6.725849999999999),
    ("y-first", 5): (400, 1.55, 3.22, 9.58, 4.157499999999999, 4.486599999999999,
                     40.78360000000001, 3.854, 12.526),
}


@pytest.mark.parametrize("policy,q", sorted(PINNED_ROTATION_STATS))
def test_pinned_rotation_stats(policy, q):
    stats = rotation_moments(q, 400, 2026, policy)
    assert dataclasses.astuple(stats) == PINNED_ROTATION_STATS[policy, q]


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


    @pytest.mark.parametrize("q", [1, 0, 2.5, 3.0])
    def test_refuses_bad_alphabet(self, q):
        with pytest.raises(InvalidStrandError, match="alphabet size must be an integer >= 2"):
            closed_form_rotation(q)


class TestVisitValues:
    @pytest.mark.parametrize("q", [1, 0, 2.5, 3.0])
    def test_refuses_bad_alphabet(self, q):
        with pytest.raises(InvalidStrandError, match="alphabet size must be an integer >= 2"):
            visit_values(q)

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


def chain_rate(q, policy, depth):
    """Exact advances per slot of the generated chain: pi summed over states with a zero offset."""
    pi = stationary(_offset_chain(q, get_policy(policy), depth))
    per_offsets = q ** (2 * depth)  # lookahead states sharing one (a, b)
    return sum(p for k, p in enumerate(pi) if 0 in divmod(k // per_offsets, q))


class FixedDraw:
    def __init__(self, value):
        self.value = value

    def integers(self, n):
        return self.value


class TestOffsetChain:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_depth_zero_rows_follow_chain_step(self, q):
        rows = _offset_chain(q, get_policy("x-first"), 0)
        for a, b in product(range(q), repeat=2):
            expected = [Fraction(0)] * (q * q)
            draws = range(q) if a == 0 or b == 0 else [None]
            for v in draws:
                state, _ = chain_step(OffsetState(a, b), q, TieDecision.ADVANCE_X, FixedDraw(v))
                expected[state.a * q + state.b] += Fraction(1, len(draws))
            assert rows[a * q + b] == expected, (a, b)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_laggard_first_rate_is_exactly_four_over_q_plus_three(self, q):
        # the (q+3)L/2 slope as a rational; c03 and c04 check it by Monte Carlo
        assert chain_rate(q, "lf", 0) == Fraction(4, q + 3)

    @pytest.mark.parametrize("policy,rate", [("lf", Fraction(4, 5)), ("x-first", Fraction(4, 5)),
                                             ("lf1", Fraction(6, 7))])
    def test_binary_lookahead_rates(self, policy, rate):
        # lookahead state buys nothing without a rule that reads it
        assert chain_rate(2, policy, 1) == rate

    def test_lookahead_state_under_laggard_first_at_q3(self):
        assert len(_offset_chain(3, get_policy("lf"), 1)) == 81
        assert chain_rate(3, "lf", 1) == Fraction(2, 3)


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


# --- advance-driven rotations against the slot-by-slot chain ----------------


def _slot_by_slot_rotations(q, bound_tie, draws):
    """Reference rotation stream: one chain_step per slot from (0, 0), asking the
    bound tie rule at each tie, in slot 1 of the emission cycle, with the
    advances and ties counted here."""
    state = OffsetState(0, 0)
    adv = [0, 0]
    ties = 0
    while True:
        v_x = v_y = slots = 0
        while True:
            tie = None
            if state == (0, 0):
                x_first = bound_tie(*adv, 1, ties)
                tie = TieDecision.ADVANCE_X if x_first else TieDecision.ADVANCE_Y
                ties += 1
            state, event = chain_step(state, q, tie, draws)
            slots += 1
            v_x += event is ChainEvent.ADVANCE_X
            v_y += event is ChainEvent.ADVANCE_Y
            if state == (0, 0):
                break
        adv[0] += v_x
        adv[1] += v_y
        yield v_x, v_y, slots


@settings(max_examples=150, deadline=None)
@given(q=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
       policy=st.sampled_from(["x-first", "y-first", "lf", "round-robin"]),
       n=st.integers(1, 300), block=st.sampled_from([1, 7, 64, 8192]))
def test_rotations_equal_slot_by_slot_chain(q, seed, policy, n, block):
    # the generator's blocks give BlockDraws' stream over it: the same
    # rotations, and the generator left in the same state afterwards
    tie = get_policy(policy).bind(q)
    gen, reference_gen = master_rng(seed), master_rng(seed)
    with mock.patch.object(markov, "block_stream", partial(block_stream, block=block)):
        rotations = list(islice(_rotations(q, tie, gen), n))
    draws = BlockDraws(reference_gen, q, block=block)
    assert rotations == list(islice(_slot_by_slot_rotations(q, tie, draws), n))
    assert (gen.bit_generator.random_raw(4).tolist()
            == reference_gen.bit_generator.random_raw(4).tolist())


def test_rotations_consult_tie_rule_once_per_rotation():
    calls = []

    def tie(i, j, t, n):
        calls.append((i, j, n))
        assert t % 4 == 1  # a tie in the chain falls on an emission of 0
        return False

    rotations = list(islice(_rotations(4, tie, master_rng(5)), 50))
    assert len(calls) == 50
    assert all(v_y >= 1 for _, v_y, _ in rotations)
    # each call sees the advances of the rotations before it, and their number
    sums = [(0, 0, 0)]
    for v_x, v_y, _ in rotations[:-1]:
        i, j, k = sums[-1]
        sums.append((i + v_x, j + v_y, k + 1))
    assert calls == sums


# --- counted moments and stretched drift against per-rotation loops ----------


def _per_rotation_moments(q, n_rotations, seed, policy):
    """Reference: eight running sums, one rotation at a time."""
    s_vx = s_vy = s_t = 0
    s_vx2 = s_vy2 = s_t2 = s_xy = s_tx = 0
    for v_x, v_y, t_len in markov._policy_rotations(q, n_rotations, seed, policy):
        s_vx += v_x
        s_vy += v_y
        s_t += t_len
        s_vx2 += v_x * v_x
        s_vy2 += v_y * v_y
        s_t2 += t_len * t_len
        s_xy += v_x * v_y
        s_tx += t_len * v_x
    n = n_rotations
    m_vx, m_vy, m_t = s_vx / n, s_vy / n, s_t / n
    return RotationStats(
        n=n, mean_vx=m_vx, mean_vy=m_vy, mean_t=m_t,
        var_vx=s_vx2 / n - m_vx * m_vx, var_vy=s_vy2 / n - m_vy * m_vy,
        var_t=s_t2 / n - m_t * m_t, cov_vx_vy=s_xy / n - m_vx * m_vy,
        cov_t_vx=s_tx / n - m_t * m_vx,
    )


def _per_rotation_drift(q, n_rotations, seed, policy):
    """Reference: both advance totals and a checkpoint lookup every rotation."""
    checkpoints = {m * 10**e for e in range(len(str(n_rotations))) for m in (1, 2, 5)}
    checkpoints.add(n_rotations)
    x_tot = y_tot = sum_abs_d = 0
    out = []
    for n, (v_x, v_y, _) in enumerate(markov._policy_rotations(q, n_rotations, seed, policy), 1):
        x_tot += v_x
        y_tot += v_y
        sum_abs_d += abs(x_tot - y_tot)
        if n in checkpoints:
            out.append((n, sum_abs_d / n))
    return out


class TestCountedMoments:
    @settings(max_examples=150, deadline=None)
    @given(q=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
           policy=st.sampled_from(["x-first", "y-first", "lf", "round-robin"]),
           n=st.integers(1, 400), block=st.sampled_from([1, 7, 64]))
    def test_equals_the_per_rotation_sums(self, q, seed, policy, n, block):
        with mock.patch.object(markov, "_FOLD_BLOCK", block):
            stats = rotation_moments(q, n, seed, policy)
        assert stats == _per_rotation_moments(q, n, seed, policy)

    def test_blocks_stay_bounded_when_every_rotation_is_distinct(self):
        blocks = []

        def spy(rotations):
            counts = Counter(rotations)
            blocks.append((sum(counts.values()), len(counts)))
            return counts

        with (mock.patch.object(markov, "_FOLD_BLOCK", 16),
              mock.patch.object(markov, "Counter", spy)):
            stats = rotation_moments(1000, 100, 5)
        assert sum(size for size, _ in blocks) == 100
        assert max(size for size, _ in blocks) == 16
        assert sum(distinct for _, distinct in blocks) >= 95  # nearly no two rotations alike
        assert stats == _per_rotation_moments(1000, 100, 5, "x-first")


@pytest.mark.parametrize("policy", ["lf", "x-first"])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_drift_series_equals_the_per_rotation_loop(policy, q):
    for n in (10, 11, 19, 20, 21, 99, 100, 101, 1000, 1001, 2345):
        series = drift_series(q, n, 2026, policy)
        assert series == _per_rotation_drift(q, n, 2026, policy)
        assert series[-1][0] == n and all(m <= n for m, _ in series)


class TestChainPolicyCheckedBeforeDrawing:
    """The chain keeps no lookahead symbols and no coin: lf1 and random are refused."""

    @pytest.mark.parametrize("policy", ["lf1", "random", "zigzag"])
    def test_rotation_moments(self, policy):
        gen = master_rng(1)
        with pytest.raises(ValueError, match="cannot run policy"):
            rotation_moments(2, 200_000, gen, policy)
        assert gen.integers(2**32) == master_rng(1).integers(2**32)

    @pytest.mark.parametrize("policy", ["lf1", "random", "zigzag"])
    def test_drift_series(self, policy):
        gen = master_rng(1)
        with pytest.raises(ValueError, match="cannot run policy"):
            drift_series(2, 50_000, gen, policy)
        assert gen.integers(2**32) == master_rng(1).integers(2**32)


class TestAlphabetCheckedBeforeDrawing:
    @pytest.mark.parametrize("q", [1, 0, -3])
    def test_rotation_moments(self, q):
        gen = master_rng(1)
        with pytest.raises(InvalidStrandError, match="alphabet size"):
            rotation_moments(q, 200_000, gen)
        assert gen.integers(2**32) == master_rng(1).integers(2**32)

    @pytest.mark.parametrize("q", [1, 0])
    def test_drift_series(self, q):
        gen = master_rng(1)
        with pytest.raises(InvalidStrandError, match="alphabet size"):
            drift_series(q, 50_000, gen)
        assert gen.integers(2**32) == master_rng(1).integers(2**32)

    @pytest.mark.parametrize("sampler", [rotation_moments, drift_series])
    def test_past_the_int64_draw(self, sampler):
        # numpy's int64 draw holds a base of at most 2**63: one past it is
        # refused in the program's words before the generator moves
        gen = master_rng(1)
        with pytest.raises(ConfigError, match=rf"^the offset chain draws int64 offsets, so q must "
                                              rf"be <= 2\*\*63, got {2**63 + 1}$"):
            sampler(2**63 + 1, 50, gen)
        assert gen.integers(2**32) == master_rng(1).integers(2**32)

    @pytest.mark.parametrize("sampler", [rotation_moments, drift_series])
    def test_at_the_int64_draw(self, sampler, monkeypatch):
        # q = 2**63 still draws; a rotation there takes about q advances, so
        # the stream ends the run after its first five draws
        draws = []

        def stream(gen, base):
            draw = block_stream(gen, base)

            def first_five():
                if len(draws) == 5:
                    raise _StreamEnd
                draws.append(draw())
                return draws[-1]
            return first_five

        monkeypatch.setattr(markov, "block_stream", stream)
        with pytest.raises(_StreamEnd):
            sampler(2**63, 50, master_rng(1))
        assert len(draws) == 5 and all(0 <= d < 2**63 for d in draws)


class _StreamEnd(Exception):
    """Raised by a test's draw stream to end a run that would not end."""


# --- integer stationary solve against a Fraction reference ------------------


def _fraction_stationary(rows):
    """Reference: dense Gauss-Jordan on Fractions of the same balance system."""
    n = len(rows)
    m = [[Fraction(rows[j][i]) - (i == j) for j in range(n)] for i in range(n)]
    m[n - 1] = [Fraction(1)] * n
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular")
        m[col], m[pivot] = m[pivot], m[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        rhs[col] *= inv
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [vr - f * vc for vr, vc in zip(m[r], m[col])]
                rhs[r] -= f * rhs[col]
    return rhs


def _stochastic_row(weights):
    total = sum(weights)
    return [Fraction(w, total) if w % total else w // total for w in weights]


@st.composite
def stochastic_matrices(draw, max_size=8):
    """Random rational row-stochastic matrices; zero weights make transient and
    absorbing states, and entries 0 and 1 come as ints."""
    n = draw(st.integers(1, max_size))
    weights = st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any)
    return [_stochastic_row(draw(weights)) for _ in range(n)]


def _solve_or_raise(solver, matrix):
    try:
        return solver(matrix)
    except ValueError:
        return ValueError


class TestExactStationaryDifferential:
    @settings(max_examples=300, deadline=None)
    @given(stochastic_matrices())
    def test_equals_fraction_reference(self, matrix):
        assert _solve_or_raise(stationary, matrix) == _solve_or_raise(_fraction_stationary, matrix)

    @settings(max_examples=150, deadline=None)
    @given(stochastic_matrices(max_size=5), st.data())
    def test_transient_states_are_exactly_zero(self, closed, data):
        # extra states leak into state 0 of a closed block, so they are transient
        k = len(closed)
        extra = data.draw(st.integers(1, 3))
        n = k + extra
        matrix = [row + [0] * extra for row in closed]
        for _ in range(extra):
            weights = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
            weights[0] += 1
            matrix.append(_stochastic_row(weights))
        pi = _solve_or_raise(stationary, matrix)
        assert pi == _solve_or_raise(_fraction_stationary, matrix)
        if pi is not ValueError:
            assert pi[k:] == [0] * extra
            assert pi[:k] == stationary(closed)

    @settings(max_examples=100, deadline=None)
    @given(stochastic_matrices(max_size=4), stochastic_matrices(max_size=4))
    def test_two_closed_classes_raise(self, first, second):
        matrix = ([row + [0] * len(second) for row in first]
                  + [[0] * len(first) + row for row in second])
        with pytest.raises(ValueError):
            stationary(matrix)

    @settings(max_examples=100, deadline=None)
    @given(stochastic_matrices(), st.data())
    def test_rows_off_one_raise(self, matrix, data):
        n = len(matrix)
        r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        matrix[r][c] += data.draw(st.sampled_from([Fraction(1, 7), Fraction(-1, 1000), 1]))
        with pytest.raises(ValueError):
            stationary(matrix)

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError, match="empty"):
            stationary([])
        with pytest.raises(ValueError, match="square"):
            stationary([[Fraction(1)], [Fraction(1)]])


@st.composite
def sparse_chains(draw):
    """Sparse row-stochastic chains of 9 to 48 states, 0 to 3 drawn targets a row.

    A row with no target is absorbing; a one-target row is the int 1, other
    rows split into Fractions, and every other entry is the int 0. "free"
    chains draw their targets anywhere, so they may hold several closed
    classes. "one" and "two" chains hold that many closed classes, each a
    ring plus chords, and every other state is transient: its first target
    is a lower state. States are shuffled at the end. Returns the matrix,
    the shape and the shuffled indices of the closed-class states.
    """
    n = draw(st.integers(9, 48))
    shape = draw(st.sampled_from(["free", "one", "two"]))
    sizes = []
    if shape != "free":
        sizes.append(draw(st.integers(1, n - (shape == "two"))))
    if shape == "two":
        sizes.append(draw(st.integers(1, n - sizes[0])))
    blocks = [(sum(sizes[:k]), m) for k, m in enumerate(sizes)]
    rows = []
    for s in range(n):
        k = draw(st.integers(0, 3))
        block = next(((b, m) for b, m in blocks if b <= s < b + m), None)
        if block:  # a ring step, then chords inside the class
            b, m = block
            chords = draw(st.lists(st.integers(b, b + m - 1), max_size=max(k - 1, 0)))
            targets = [b + (s - b + 1) % m] + chords
        elif blocks:  # transient
            spread = draw(st.lists(st.integers(0, n - 1), max_size=max(k - 1, 0)))
            targets = [draw(st.integers(0, s - 1))] + spread
        else:
            targets = draw(st.lists(st.integers(0, n - 1), max_size=k))
        row = [0] * n
        for t in targets:
            row[t] += draw(st.integers(1, 4))
        rows.append(_stochastic_row(row) if targets else [int(t == s) for t in range(n)])
    order = draw(st.permutations(range(n)))
    matrix = [[rows[old][order[c]] for c in range(n)] for old in order]
    return matrix, shape, {new for new, old in enumerate(order) if old < sum(sizes)}


class TestSparseStationary:
    @settings(max_examples=80, deadline=None)
    @given(sparse_chains())
    def test_equals_fraction_reference(self, chain):
        matrix, shape, closed = chain
        pi = _solve_or_raise(stationary, matrix)
        assert pi == _solve_or_raise(_fraction_stationary, matrix)
        if shape == "two":
            assert pi is ValueError
        if shape == "one":
            assert [k for k, p in enumerate(pi) if p] == sorted(closed)

    def test_row_error_names_first_bad_row_and_exact_sum(self):
        third = Fraction(1, 3)
        matrix = [[1, 0, 0, 0],
                  [third, third, 0, Fraction(1, 5)],
                  [0, 0, 1, 0],
                  [0, Fraction(3, 2), 0, Fraction(-1, 7)]]
        with pytest.raises(ValueError, match=r"^row 1 is not a probability distribution \(sum 13/15\)$"):
            stationary(matrix)
        matrix[1][3] = third
        with pytest.raises(ValueError, match=r"^row 3 is not a probability distribution \(sum 19/14\)$"):
            stationary(matrix)
        matrix[3] = [0, Fraction(3, 2), 0, Fraction(-1, 2)]
        with pytest.raises(ValueError, match=r"^row 3 is not a probability distribution \(sum 1\)$"):
            stationary(matrix)

    @pytest.mark.parametrize("policy", ["x-first", "y-first", "lf", "round-robin"])
    def test_q4_lookahead_chain_rate(self, policy):
        # 256 states; only a rule that reads the lookahead offsets could move the rate
        assert chain_rate(4, policy, 1) == Fraction(4, 7)
