"""Core model: periodic machine, solo synthesis, greedy simulation, schedules."""

from __future__ import annotations

import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowsynth import (
    Action,
    ConfigError,
    HistoryDigest,
    IllegalActionError,
    IncompleteScheduleError,
    InvalidStrandError,
    Schedule,
    ScheduleError,
    SimTrace,
    StepRecord,
    TieContext,
    TieDecision,
    TiePolicy,
    UnsupportedAlphabetError,
    apply_schedule,
    completion_time,
    format_strand,
    get_policy,
    parse_strand,
    periodic_symbol,
    policy_catalog,
    simulate,
    simulate_k,
    solo_time,
    validate_strand,
)
from rowsynth.rng import master_rng
from conftest import random_pair, reference_solo

X1 = (1, 3, 2, 2)
Y1 = (0, 1, 3, 0)
SCHEDULE_A = "Y,X,-,X,-,Y,X,Y,Y,-,X"
SCHEDULE_B = "Y,Y,-,Y,Y,X,-,X,-,-,X,-,-,-,X"


class TestPeriodicSymbol:
    def test_first_slot_emits_zero(self):
        assert periodic_symbol(4, 1) == 0

    def test_wraps_after_q_slots(self):
        assert periodic_symbol(4, 5) == 0

    def test_binary_fourth_slot(self):
        assert periodic_symbol(2, 4) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidStrandError):
            periodic_symbol(1, 1)
        with pytest.raises(ValueError):
            periodic_symbol(2, 0)


class TestSoloTime:
    def test_small_binary(self):
        assert solo_time((0, 1, 1), 2) == 4

    def test_alternating_with_repeat(self):
        assert solo_time((0, 1, 0, 1, 0, 1, 0, 0), 2) == 9

    def test_empty_strand(self):
        assert solo_time((), 3) == 0

    def test_symbol_out_of_range(self):
        with pytest.raises(InvalidStrandError):
            solo_time((0, 2), 2)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_matches_slot_by_slot_oracle_exhaustively(self, q):
        for n in range(0, 9):
            for z in product(range(q), repeat=n):
                assert solo_time(z, q) == reference_solo(z, q)


class TestSimulate:
    def test_ordering_example_under_x_first(self):
        sched, trace = simulate(X1, Y1, get_policy("x-first"), 4)
        assert sched.completion_time == 11
        assert sched.to_string() == SCHEDULE_A
        assert len(trace) == 11

    def test_empty_pair(self):
        sched, trace = simulate((), (), get_policy("lf"), 2)
        assert sched.completion_time == 0
        assert len(sched) == 0
        assert len(trace) == 0

    def test_identical_binary_pair_x_first(self):
        # hand-checked: ties at slots 1 and 4, x finishes at slot 4, y at slot 8
        sched, _ = simulate((0, 1, 1), (0, 1, 1), get_policy("x-first"), 2)
        assert sched.completion_time == 8
        assert sched.to_string() == "X,X,Y,X,-,Y,-,Y"

    def test_round_trip_against_apply_schedule(self, rng):
        for _ in range(120):
            q = int(rng.integers(2, 5))
            x, y = random_pair(rng, q, int(rng.integers(0, 16)))
            for policy in policy_catalog():
                if policy.name == "lf1" and q != 2:
                    continue
                sched, _ = simulate(x, y, policy, q, rng)
                assert apply_schedule(x, y, sched, q) == sched.completion_time
                assert sched.advance_count(1) == len(x)
                assert sched.advance_count(2) == len(y)

    def test_completion_time_range(self, rng):
        for _ in range(200):
            q = int(rng.integers(2, 6))
            length = int(rng.integers(1, 24))
            x, y = random_pair(rng, q, length)
            t = completion_time(x, y, get_policy("lf"), q)
            assert 2 * length <= t <= 2 * q * length

    def test_never_idles_when_progress_possible(self, rng):
        for _ in range(80):
            q = int(rng.integers(2, 5))
            x, y = random_pair(rng, q, int(rng.integers(1, 20)))
            _, trace = simulate(x, y, get_policy("round-robin"), q, rng)
            for rec in trace:
                if not rec.action.is_advance:
                    assert rec.a != 0 and rec.b != 0

    def test_interior_states_decrement_together(self, rng):
        for _ in range(60):
            q = int(rng.integers(2, 6))
            x, y = random_pair(rng, q, int(rng.integers(1, 20)))
            _, trace = simulate(x, y, get_policy("lf"), q, rng)
            recs = trace.records
            for prev, nxt in zip(recs, recs[1:]):
                if prev.a is not None and prev.b is not None and prev.a > 0 and prev.b > 0:
                    assert nxt.a == prev.a - 1
                    assert nxt.b == prev.b - 1

    def test_trace_slots_are_consecutive(self, rng):
        x, y = random_pair(rng, 3, 12)
        _, trace = simulate(x, y, get_policy("lf"), 3)
        assert [rec.t for rec in trace] == list(range(1, len(trace) + 1))

    def test_fast_path_agrees_with_trace_path(self, rng):
        for _ in range(100):
            q = int(rng.integers(2, 5))
            x, y = random_pair(rng, q, int(rng.integers(0, 24)))
            sched, _ = simulate(x, y, get_policy("lf"), q)
            assert completion_time(x, y, get_policy("lf"), q) == sched.completion_time


class TestSimulateK:
    def test_single_strand_matching_machine(self):
        assert simulate_k([(0, 1)], get_policy("x-first"), 2).completion_time == 2

    def test_no_strands(self):
        assert simulate_k([], get_policy("x-first"), 2).completion_time == 0

    def test_two_identical_ones_strands(self):
        # four symbols, all needing emission 1, which slots 2,4,6,8 provide
        sched = simulate_k([(1, 1), (1, 1)], get_policy("x-first"), 2)
        assert sched.completion_time == 8

    def test_pair_case_delegates_to_pair_simulator(self, rng):
        for _ in range(40):
            q = int(rng.integers(2, 5))
            x, y = random_pair(rng, q, 10)
            via_k = simulate_k([x, y], get_policy("lf"), q)
            via_pair, _ = simulate(x, y, get_policy("lf"), q)
            assert via_k == via_pair

    def test_three_strands_laggard(self):
        sched = simulate_k([(0, 1), (0, 0), (1, 0)], get_policy("lf"), 2)
        counts = [sched.advance_count(s) for s in (1, 2, 3)]
        assert counts == [2, 2, 2]

    def test_lookahead_policy_rejected_beyond_two_strands(self):
        with pytest.raises(ConfigError):
            simulate_k([(0,), (1,), (0,)], get_policy("lf1"), 2)


class TestApplySchedule:
    def test_example_schedule_a(self):
        assert apply_schedule(X1, Y1, Schedule.from_string(SCHEDULE_A), 4) == 11

    def test_example_schedule_b(self):
        assert apply_schedule(X1, Y1, Schedule.from_string(SCHEDULE_B), 4) == 15

    def test_incomplete_schedule_rejected(self):
        with pytest.raises(IncompleteScheduleError):
            apply_schedule((0,), (0,), Schedule.from_string("X"), 2)

    def test_illegal_advance_names_slot(self):
        with pytest.raises(IllegalActionError) as err:
            apply_schedule((1,), (0,), Schedule.from_string("X"), 2)
        assert err.value.slot == 1

    def test_advancing_complete_strand_rejected(self):
        with pytest.raises(IllegalActionError) as err:
            apply_schedule((0,), (1,), Schedule.from_string("X,Y,X"), 2)
        assert err.value.slot == 3

    def test_unknown_strand_index_rejected(self):
        with pytest.raises(IllegalActionError):
            apply_schedule((0,), (0,), Schedule((Action(3),)), 2)

    def test_non_greedy_idles_are_permitted(self):
        # slot 1 idles although strand 1 could advance; still scores fine
        assert apply_schedule((0,), (), Schedule.from_string("-,-,X"), 2) == 3


class TestScheduleType:
    def test_string_round_trip(self):
        text = "X,-,Y,X3,-,X"
        assert Schedule.from_string(text).to_string() == text

    def test_trailing_idle_forbidden(self):
        with pytest.raises(ScheduleError):
            Schedule.from_string("X,-")

    def test_unknown_token(self):
        with pytest.raises(ScheduleError):
            Schedule.from_string("X,Z")

    def test_empty(self):
        sched = Schedule.from_string("")
        assert sched.completion_time == 0


class TestStrandText:
    def test_comma_form(self):
        assert parse_strand("1,3,2,2", 4) == (1, 3, 2, 2)

    def test_digit_form(self):
        assert parse_strand("1322", 4) == (1, 3, 2, 2)

    def test_digit_form_rejected_beyond_ten_symbols(self):
        with pytest.raises(InvalidStrandError):
            parse_strand("1322", 11)
        assert parse_strand("10,3", 11) == (10, 3)

    def test_symbol_out_of_alphabet(self):
        with pytest.raises(InvalidStrandError):
            parse_strand("1,4", 4)

    def test_empty_text(self):
        assert parse_strand("", 4) == ()

    def test_format_round_trip(self):
        assert parse_strand(format_strand((0, 10, 3)), 11) == (0, 10, 3)

    def test_garbage_rejected(self):
        with pytest.raises(InvalidStrandError):
            parse_strand("1,a,2", 4)
        with pytest.raises(InvalidStrandError):
            parse_strand("xyz", 4)

    def test_first_offending_position_is_named(self):
        with pytest.raises(InvalidStrandError,
                           match="^symbol 5 at position 1 outside alphabet of size 2$"):
            validate_strand((0, 5, -1), 2)

    @pytest.mark.parametrize("strand,position", [([0.9, 1.7], 0), ((1, 0, 1.0), 2),
                                                 ((0, "1"), 1), (np.array([0.0, 1.0]), 0)])
    def test_non_integer_symbols_refused_not_truncated(self, strand, position):
        with pytest.raises(InvalidStrandError, match=f" at position {position} is not an integer$"):
            validate_strand(strand, 2)

    def test_numpy_integer_symbols_accepted(self):
        out = validate_strand(np.array([0, 3, 1], dtype=np.int64), 4)
        assert out == (0, 3, 1)
        assert all(type(s) is int for s in out)


# --- the advance-driven simulator against a slot-by-slot reference ------------


def reference_run(x, y, policy, q, rng):
    """Slot-by-slot greedy loop, deciding every tie through policy.decide.

    Returns the completion time, the schedule and the per-slot trace that
    simulate() must reproduce.
    """
    i = j = t = ties = 0
    actions, records = [], []
    look = policy.lookahead == 1
    while i < len(x) or j < len(y):
        t += 1
        r = (t - 1) % q
        a = (x[i] - r) % q if i < len(x) else None
        b = (y[j] - r) % q if j < len(y) else None
        if a == 0 and b == 0:
            coin = int(rng.integers(2)) if policy.uses_rng else 0
            ctx = TieContext(i, j, r, q,
                             x[i + 1] if look and i + 1 < len(x) else None,
                             y[j + 1] if look and j + 1 < len(y) else None,
                             HistoryDigest(ties, coin))
            ties += 1
            strand = 1 if policy.decide(ctx) is TieDecision.ADVANCE_X else 2
        else:
            strand = 1 if a == 0 else 2 if b == 0 else None
        actions.append(Action(strand))
        records.append(StepRecord(t, r, Action(strand), a, b))
        if strand == 1:
            i += 1
        elif strand == 2:
            j += 1
    return t, Schedule(tuple(actions)), SimTrace(tuple(records))


def _counted(policy):
    """The policy with its decide wrapped, as an outside tracer rebuilds it."""
    decide = policy.decide
    return dataclasses.replace(policy, decide=lambda ctx: decide(ctx))


def _mixed(ctx):
    total = (ctx.i + 2 * ctx.j + ctx.r + ctx.history.ties + ctx.history.coin
             + (ctx.lookahead_x or 0) - 2 * (ctx.lookahead_y or 0))
    return TieDecision.ADVANCE_X if total % 3 else TieDecision.ADVANCE_Y


KERNEL_POLICIES = [*policy_catalog(), _counted(get_policy("lf1")),
                   TiePolicy("mixed", 1, _mixed, uses_rng=True)]


@st.composite
def strand_pairs(draw):
    q = draw(st.integers(2, 6))
    symbols = st.lists(st.integers(0, q - 1), max_size=14).map(tuple)
    return q, draw(symbols), draw(symbols)


class TestKernelAgainstReference:
    @settings(max_examples=600, deadline=None)
    @given(strand_pairs(), st.sampled_from(KERNEL_POLICIES), st.integers(0, 2**32 - 1))
    def test_time_schedule_and_trace_match(self, pair, policy, seed):
        q, x, y = pair
        try:
            t, sched, trace = reference_run(x, y, policy, q, master_rng(seed))
        except UnsupportedAlphabetError:
            with pytest.raises(UnsupportedAlphabetError):
                completion_time(x, y, policy, q, master_rng(seed))
            return
        assert simulate(x, y, policy, q, master_rng(seed)) == (sched, trace)
        assert completion_time(x, y, policy, q, master_rng(seed)) == t
        assert simulate_k([x, y], policy, q, master_rng(seed)) == sched
