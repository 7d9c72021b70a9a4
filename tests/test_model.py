"""Core model: periodic machine, solo synthesis, greedy simulation, schedules."""

from __future__ import annotations

import dataclasses
import hashlib
import re
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowsynth import model
from rowsynth import (
    Action,
    BudgetExceededError,
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


def reference_solo_slots(z, q):
    """Slot-by-slot greedy solo synthesis, recording the slot of every advance."""
    slots, t = [], 0
    for s in z:
        t += 1
        while (t - 1) % q != s:
            t += 1
        slots.append(t)
    return slots


class TestSoloSlots:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 4, 5, 6, 7, 300]).flatmap(
        lambda q: st.tuples(st.just(q), st.lists(st.integers(0, q - 1), min_size=1,
                                                 max_size=40))))
    def test_last_slot_is_solo_time_and_every_slot_the_greedy_one(self, case):
        q, z = case
        expected = reference_solo_slots(z, q)
        assert expected[-1] == model._solo_time(tuple(z), q)
        for cutoff in (0, 10**9):  # numpy, then Python ints, whatever the length
            with mock.patch.object(model, "_NUMPY_SLOTS", cutoff):
                for strand in (tuple(z), np.array(z, dtype=np.int64)):
                    slots = model._solo_slots(strand, q)
                    assert slots == expected
                    assert all(type(t) is int for t in slots)

    @pytest.mark.parametrize("q", [2, 3, 7, 300])
    def test_long_strands_take_numpy_and_match_python_ints(self, monkeypatch, q):
        z = tuple(np.random.default_rng(q).integers(0, q, size=500).tolist())
        slots = model._solo_slots(z, q)
        assert slots == reference_solo_slots(z, q)
        monkeypatch.setattr(model, "_SLOT_RANGE", 0)  # Python ints
        assert model._solo_slots(z, q) == slots

    def test_alphabet_past_the_int64_range(self):
        q = 2**70
        z = (5, 4, 2**69, 2**69, q - 1)
        # gaps of ((z_k - z_{k-1} - 1) mod q) + 1, as solo_time sums them
        expected, t, cur = [], 0, q - 1
        for s in z:
            t += (s - cur - 1) % q + 1
            cur = s
            expected.append(t)
        assert model._solo_slots(z, q) == expected

    @pytest.mark.parametrize("q", [2, 5, 2**70])
    def test_empty_strand_has_no_slots(self, q):
        assert model._solo_slots((), q) == []
        assert model._solo_slots(np.array([], dtype=np.int64), q) == []


class TestSoloSlotWalk:
    def test_completion_past_the_int64_range(self):
        lf = get_policy("lf")
        q = 2**70
        assert completion_time((5, 4, 2**69), (1, 2, 2**69), lf, q) == 1770887431076116955137

    @pytest.mark.parametrize("name", ["x-first", "y-first", "lf", "random"])
    @pytest.mark.parametrize("q", [2, 5])
    def test_empty_strands(self, name, q):
        policy, z = get_policy(name), (1, 0, 1, 1)
        assert completion_time((), (), policy, q) == 0
        assert completion_time(z, (), policy, q) == completion_time((), z, policy, q) == \
            solo_time(z, q)
        sched, _ = simulate((), z, policy, q)
        assert sched.completion_time == solo_time(z, q)
        assert {a.strand for a in sched if a.is_advance} == {2}
        assert simulate_k([(), z, ()], policy, q).completion_time == solo_time(z, q)

    # (x, y, q, refused slot): the slot of the first advance past a budget of
    # 100, as the walk that stepped with (z - t) mod q reported it. In the
    # first case y is done at slot 3 and x's 4 comes round at 1005; in the
    # second both strands still run when y's 998 comes round at 999.
    @pytest.mark.parametrize("x, y, q, refused", [
        ((5, 4), (1, 2), 1000, 1005),
        ((5, 4, 7), (1, 2, 998, 3), 1000, 999),
        ((0, 1, 0, 1), (0, 1, 0, 1), 60, 121),
        ((1,) * 30, (1,) * 30, 3, 101),
        ((0,) * 50, (0,) * 50, 2, 101),
    ])
    @pytest.mark.parametrize("name", ["x-first", "y-first", "lf"])
    def test_refused_schedule_reports_the_same_slot(self, monkeypatch, x, y, q, refused, name):
        monkeypatch.setattr(model, "MAX_SCHEDULE_SLOTS", 100)
        with pytest.raises(BudgetExceededError) as err:
            simulate(x, y, get_policy(name), q)
        assert err.value.required == refused
        if len(x) == 2:  # a third strand, (q - 1,), is refused first, at slot q
            with pytest.raises(BudgetExceededError) as err:
                simulate_k([x, y, (q - 1,)], get_policy(name), q)
            assert err.value.required == q

    def test_given_slots_are_walked(self):
        # slots shifted by 2q walk the same ties, two rounds later
        x, y, q, lf = (0, 1, 1), (0, 0, 1), 2, get_policy("lf")
        sx, sy = model._solo_slots(x, q), model._solo_slots(y, q)
        shifted = ([t + 2 * q for t in sx], [t + 2 * q for t in sy])
        assert model._run(*shifted, q, lf.bind(q)) == completion_time(x, y, lf, q) + 2 * q


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
                text = sched.to_string()
                assert text == ",".join(a.token() for a in sched)
                assert apply_schedule(x, y, Schedule.from_string(text), q) == len(sched)
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

    def test_simulated_schedule_is_checked_against_the_model(self, monkeypatch):
        def illegal_run(sx, sy, q, tie, actions=None):
            actions.extend([Action(1), Action(2)])  # slot 2 emits 1; y needs 0
            return 2

        monkeypatch.setattr(model, "_run", illegal_run)
        with pytest.raises(IllegalActionError) as err:
            simulate((0,), (0,), get_policy("x-first"), 2)
        assert err.value.slot == 2

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

    def test_schedules_past_the_slot_budget_are_refused_and_times_are_not(self, monkeypatch):
        # a small budget keeps a missing refusal cheap; test_cli checks the real one
        monkeypatch.setattr(model, "MAX_SCHEDULE_SLOTS", 100)
        # x's 4 comes round a whole alphabet after its 5, at slot q + 5
        x, y, q, lf = (5, 4), (1, 2), 1000, get_policy("lf")
        assert completion_time(x, y, lf, q) == q + 5
        for build in (lambda: simulate(x, y, lf, q), lambda: simulate_k([x, y], lf, q),
                      lambda: simulate_k([x, y, (3,)], lf, q)):
            with pytest.raises(BudgetExceededError) as err:
                build()
            assert (err.value.required, err.value.budget) == (q + 5, 100)
            assert str(err.value).startswith("schedule requires")

    # sha256 of simulate_k(...).to_string() on seeded rows of k strands of
    # 0-39 symbols each, as the slot-by-slot loop produced them
    PINNED_K = {
        ("x-first", 3, 2): "015d671ec2f231182079ca1f652acc51a63b5903ae85f1e12e8ca3ee260b599c",
        ("x-first", 3, 4): "e70b944428f5b539a1fa25a28e15362f0ccdfdc5dcdb30b761c6f365ec3af760",
        ("x-first", 5, 2): "41e7f72bf0493cf03a715d6075d4bc55a82f82b899e6c6fb1fbfa4bc62e8106f",
        ("x-first", 5, 4): "fe722779ef005c969ba07dd41bcdabb03070958cf4cb2270af93574d27ee2517",
        ("y-first", 3, 2): "f615861979c85a1ba41c1057750fc791716d01f637cc807847defa83e029f5ec",
        ("y-first", 3, 4): "4d4f4e69366f6d2f1a97bf0b3db06a1353831925fc5a0b75e983a4b67327bbf2",
        ("y-first", 5, 2): "a527536c81c6ac9ba6499e925be597e2dbe4efdde6e9f9840117b6e3e0144c8e",
        ("y-first", 5, 4): "7d4cd96958c0952332179b31699797b8f58a60c7b700976352a5ff58cc769f89",
        ("lf", 3, 2): "6d29a0ebce7af8f5914c2b4fca55cf31445a0b0d017d9237ba6eafbff5942273",
        ("lf", 3, 4): "06136999450e0195dbc69a5e8558f3978c36e7b9a9b0d6126631443e3675c432",
        ("lf", 5, 2): "e5c2e5cdbc0574bc60fec358645c528c54c2adb919799d381b366da8ec79d8c0",
        ("lf", 5, 4): "49d7eae49084d8ff4655b72cf0a6616dc1835435e6967db59e4bc6ddc5bf8f53",
        ("round-robin", 3, 2): "17c27fcfbcd8a40c6a244407c685c37263bc624df4a6de1ed54041e4e71f3aa7",
        ("round-robin", 3, 4): "72ae788cb55b59107474dbafcefc88a5788801e69536155d44bfeb2fa93b471c",
        ("round-robin", 5, 2): "969c49f079902d2762c3dd70a45fe92c5df9c02fbfbe9af11eafa04f06305e14",
        ("round-robin", 5, 4): "b5ad350fd0cbc680f3b9ed229f9ebdecf92202186ac426573b98e643bc5b3287",
        ("random", 3, 2): "3f910e688bdf259b420bf4a2a577719433e35266e90e6afb4b8838b5404ea379",
        ("random", 3, 4): "d331e65a0110b74fe5e714e3edef005f4ff54ad57fd2bf815105ff09a2663265",
        ("random", 5, 2): "63d727241d9aa62c583c80a2a07872bf24f01a702ad68ea61f83c522099c5d3e",
        ("random", 5, 4): "ee0c209e22500c3ef8ac8f223b949a29b0155cb1e4506fa41017c8f5e8f2a695",
    }

    @pytest.mark.parametrize("name,k,q", sorted(PINNED_K))
    def test_pinned_schedules(self, name, k, q):
        seed = 1000 * k + 10 * q
        gen = np.random.default_rng(seed)
        row = [tuple(gen.integers(0, q, size=int(gen.integers(0, 40))).tolist()) for _ in range(k)]
        sched = simulate_k(row, get_policy(name), q, master_rng(seed))
        assert hashlib.sha256(sched.to_string().encode()).hexdigest() == self.PINNED_K[name, k, q]


class TestApplySchedule:
    def test_example_schedule_a(self):
        # the minus-sign idle and padded tokens read as "-" and as the bare token
        padded = " , ".join(SCHEDULE_A.split(","))
        for text in (SCHEDULE_A, SCHEDULE_A.replace("-", "\u2212"), padded):
            assert apply_schedule(X1, Y1, Schedule.from_string(text), 4) == 11

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
        for sched in (Schedule((Action(3),)), Schedule.from_string("X3")):
            with pytest.raises(IllegalActionError):
                apply_schedule((0,), (0,), sched, 2)

    def test_non_greedy_idles_are_permitted(self):
        # slot 1 idles although strand 1 could advance; still scores fine
        assert apply_schedule((0,), (), Schedule.from_string("-,-,X"), 2) == 3


class TestScheduleType:
    def test_string_round_trip(self):
        row = simulate_k([(0, 1), (0, 0), (1, 0)], get_policy("lf"), 2).to_string()
        assert "X3" in row
        canonical = ["X,-,Y,X3,-,X", row]
        others = ["X,\u2212,Y", " X , - ,Y,X2 ", "-,X1,X4", "X,Z", "X,-", "X, \u2212 "]
        for text in canonical + others:
            try:  # the reference: one _parse_token call per token
                expected = Schedule(tuple(model._parse_token(tok) for tok in text.split(",")))
            except ScheduleError as exc:
                with pytest.raises(ScheduleError, match=f"^{re.escape(str(exc))}$"):
                    Schedule.from_string(text)
                continue
            sched = Schedule.from_string(text)
            assert sched == expected
            assert sched.to_string() == ",".join(a.token() for a in expected.actions)
            if text in canonical:
                assert sched.to_string() == text

    def test_trailing_idle_forbidden(self):
        with pytest.raises(ScheduleError):
            Schedule.from_string("X,-")

    def test_unknown_token(self):
        # X<k> takes ASCII digits only: not superscript two, nor Arabic-Indic three
        for text in ("X,Z", "X\u00b2", "X,X\u0663"):
            with pytest.raises(ScheduleError, match="^unknown schedule token"):
                Schedule.from_string(text)

    def test_empty(self):
        sched = Schedule.from_string("")
        assert sched.completion_time == 0


class TestStrandText:
    def test_comma_form(self):
        assert parse_strand("1,3,2,2", 4) == (1, 3, 2, 2)
        assert parse_strand(" 1 , 2 ", 4) == (1, 2)  # padded tokens

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
        # digits outside ASCII 0-9 (superscript two, Arabic-Indic three and zero)
        # in either form, a sign, an underscore and an empty token
        for text in ("\u00b2", "\u0663\u0660", "1\u00b2", "\u0663,\u0660", "+1,0", "1_0,1", "1,,2"):
            message = f"cannot parse strand {text!r}"
            with pytest.raises(InvalidStrandError, match=f"^{re.escape(message)}$"):
                parse_strand(text, 4)

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


class TestScheduleRebuild:
    """Schedules rebuilt from where each strand lost its ties, against the slot-by-slot loop."""

    @pytest.mark.parametrize("policy", KERNEL_POLICIES, ids=lambda p: p.name)
    def test_rebuilt_schedule_equals_the_reference(self, policy):
        rng = np.random.default_rng(16)
        binary = policy.lookahead == 1 and policy.name != "mixed"  # lf1, wrapped or not
        for q in (2,) if binary else range(2, 6):
            edge = [(), (0,), (q - 1,)]
            cases = [(x, y) for x in edge for y in edge]
            cases += [(tuple(rng.integers(0, q, int(rng.integers(0, 30))).tolist()),
                       tuple(rng.integers(0, q, int(rng.integers(0, 30))).tolist()))
                      for _ in range(60)]
            for seed, (x, y) in enumerate(cases):
                t, sched, trace = reference_run(x, y, policy, q, master_rng(seed))
                assert simulate(x, y, policy, q, master_rng(seed)) == (sched, trace)
                assert simulate_k([x, y], policy, q, master_rng(seed)) == sched
                assert completion_time(x, y, policy, q, master_rng(seed)) == t


def reference_k(strands, policy, q, rng):
    """Slot-by-slot greedy loop over a row of k != 2 strands, each tie through policy.choose.

    Returns the schedule simulate_k() must reproduce.
    """
    done = [0] * len(strands)
    actions = []
    r = ties = 0
    while any(done[s] < len(z) for s, z in enumerate(strands)):
        cands = [s for s, z in enumerate(strands) if done[s] < len(z) and z[done[s]] == r]
        if len(cands) > 1:
            coin = int(rng.integers(1 << 30)) if policy.uses_rng else 0
            cands = [policy.choose(cands, done, HistoryDigest(ties, coin))]
            ties += 1
        if cands:
            done[cands[0]] += 1
        actions.append(Action(cands[0] + 1) if cands else Action())
        r = (r + 1) % q
    return Schedule(tuple(actions))


def _choose_mixed(cands, progress, digest):
    return cands[(digest.ties + digest.coin + 3 * sum(progress)) % len(cands)]


K_POLICIES = [p for p in policy_catalog() if p.choose is not None] + [
    TiePolicy("mixed", 0, _mixed, uses_rng=True, choose=_choose_mixed)]


@st.composite
def strand_rows(draw):
    q = draw(st.integers(2, 6))
    k = draw(st.integers(0, 6))
    return q, draw(st.lists(st.lists(st.integers(0, q - 1), max_size=10).map(tuple),
                            min_size=k, max_size=k))


class TestKStrandWalkAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(strand_rows(), st.sampled_from(K_POLICIES), st.integers(0, 2**32 - 1))
    def test_schedule_matches(self, row, policy, seed):
        q, strands = row
        if len(strands) == 2:
            expected = reference_run(*strands, policy, q, master_rng(seed))[1]
        else:
            expected = reference_k(strands, policy, q, master_rng(seed))
        assert simulate_k(strands, policy, q, master_rng(seed)) == expected
