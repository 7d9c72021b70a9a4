"""Tie policies: the catalog, decision rules, and information discipline."""

from __future__ import annotations

import dataclasses
import functools
from itertools import product

import pytest

from rowsynth import (
    HistoryDigest,
    TieContext,
    TieDecision,
    TiePolicy,
    UnsupportedAlphabetError,
    get_policy,
    laggard_first,
    lf1,
    policy_catalog,
    policy_names,
    simulate,
    x_first,
    y_first,
)
from rowsynth import policies
from conftest import random_pair


def ctx(i=0, j=0, r=0, q=2, la_x=None, la_y=None, ties=0, coin=0):
    return TieContext(i, j, r, q, la_x, la_y, HistoryDigest(ties, coin))


class TestXFirst:
    @pytest.mark.parametrize("i,j", [(0, 0), (5, 1), (1, 5)])
    def test_always_advances_x(self, i, j):
        assert x_first(ctx(i=i, j=j)) is TieDecision.ADVANCE_X

    def test_mirror(self):
        assert y_first(ctx()) is TieDecision.ADVANCE_Y


class TestLaggardFirst:
    def test_x_ahead_advances_y(self):
        assert laggard_first(ctx(i=3, j=1)) is TieDecision.ADVANCE_Y

    def test_y_ahead_advances_x(self):
        assert laggard_first(ctx(i=1, j=3)) is TieDecision.ADVANCE_X

    def test_equal_progress_advances_x(self):
        assert laggard_first(ctx(i=2, j=2)) is TieDecision.ADVANCE_X

    def test_ignores_lookahead_fields(self, rng):
        for _ in range(200):
            i, j = int(rng.integers(0, 50)), int(rng.integers(0, 50))
            base = laggard_first(ctx(i=i, j=j))
            fuzzed = laggard_first(ctx(i=i, j=j, la_x=int(rng.integers(0, 2)),
                                       la_y=int(rng.integers(0, 2))))
            assert base is fuzzed


class TestLf1:
    def test_x_lookahead_matches_next_slot(self):
        assert lf1(ctx(r=0, la_x=1, la_y=0, i=9, j=0)) is TieDecision.ADVANCE_X

    def test_y_lookahead_matches_next_slot(self):
        assert lf1(ctx(r=0, la_x=0, la_y=1, i=0, j=9)) is TieDecision.ADVANCE_Y

    def test_equal_lookaheads_fall_back_to_laggard(self):
        assert lf1(ctx(r=0, la_x=1, la_y=1, i=4, j=2)) is TieDecision.ADVANCE_Y

    def test_missing_lookahead_falls_back_to_laggard(self):
        assert lf1(ctx(r=1, la_x=0, la_y=None, i=2, j=4)) is TieDecision.ADVANCE_X

    def test_rejects_non_binary_alphabet(self):
        with pytest.raises(UnsupportedAlphabetError):
            lf1(ctx(q=3))

    def test_matches_laggard_on_constant_strands(self):
        # constant strands make every lookahead identical, so only the fallback runs
        for sym in (0, 1):
            for n in range(1, 12):
                z = (sym,) * n
                via_lf1, _ = simulate(z, z, get_policy("lf1"), 2)
                via_lf, _ = simulate(z, z, get_policy("lf"), 2)
                assert via_lf1 == via_lf

    def test_matches_laggard_whenever_no_tie_sees_unequal_lookaheads(self, rng):
        # identical strands do NOT force equal lookaheads at ties (ties can
        # occur at unequal progress, e.g. x = y = (0,0,1) at slot 3), so the
        # reduction is asserted only on instances where the premise holds
        premise_held = 0
        for _ in range(120):
            z = tuple(rng.integers(0, 2, size=int(rng.integers(1, 7))).tolist())
            sched, trace = simulate(z, z, get_policy("lf1"), 2)
            i = j = 0
            clean = True
            for rec in trace:
                if rec.a == 0 and rec.b == 0:
                    la_x = z[i + 1] if i + 1 < len(z) else None
                    la_y = z[j + 1] if j + 1 < len(z) else None
                    if la_x is not None and la_y is not None and la_x != la_y:
                        clean = False
                        break
                if rec.action.strand == 1:
                    i += 1
                elif rec.action.strand == 2:
                    j += 1
            if clean:
                premise_held += 1
                via_lf, _ = simulate(z, z, get_policy("lf"), 2)
                assert sched == via_lf
        assert premise_held > 0


class TestCatalog:
    def test_contains_required_policies(self):
        names = policy_names()
        for name in ("x-first", "y-first", "lf", "lf1", "round-robin", "random"):
            assert name in names

    def test_depths(self):
        assert get_policy("lf").lookahead == 0
        assert get_policy("lf1").lookahead == 1
        assert all(p.lookahead == 0 for p in policy_catalog() if p.name != "lf1")
        with pytest.raises(ValueError, match="^lookahead depth must be 0 or 1, got 2$"):
            TiePolicy("lf2", 2, lf1)

    def test_only_random_declares_randomness(self):
        assert get_policy("random").uses_rng
        assert not any(p.uses_rng for p in policy_catalog() if p.name != "random")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_policy("greedy-ish")


class TestPolicyBehaviourInSimulation:
    def test_relabeling_symmetry(self, rng):
        for _ in range(60):
            q = int(rng.integers(2, 5))
            x, y = random_pair(rng, q, int(rng.integers(0, 20)))
            tx, _ = simulate(x, y, get_policy("x-first"), q)
            ty, _ = simulate(y, x, get_policy("y-first"), q)
            assert tx.completion_time == ty.completion_time

    def test_laggard_rule_holds_at_every_tie(self, rng):
        for _ in range(40):
            q = int(rng.integers(2, 4))
            x, y = random_pair(rng, q, 30)
            sched, trace = simulate(x, y, get_policy("lf"), q)
            i = j = 0
            for rec in trace:
                if rec.a == 0 and rec.b == 0:
                    expected = 2 if i > j else 1
                    assert rec.action.strand == expected
                if rec.action.strand == 1:
                    i += 1
                elif rec.action.strand == 2:
                    j += 1

    def test_round_robin_alternates_across_ties(self, rng):
        for _ in range(30):
            x, y = random_pair(rng, 2, 30)
            _, trace = simulate(x, y, get_policy("round-robin"), 2)
            tie_actions = [rec.action.strand for rec in trace
                           if rec.a == 0 and rec.b == 0]
            assert tie_actions == [1 + (k % 2) for k in range(len(tie_actions))]

    def test_random_policy_is_seed_deterministic(self, rng):
        from rowsynth import master_rng

        x, y = random_pair(rng, 2, 40)
        a, _ = simulate(x, y, get_policy("random"), 2, master_rng(5))
        b, _ = simulate(x, y, get_policy("random"), 2, master_rng(5))
        c, _ = simulate(x, y, get_policy("random"), 2, master_rng(6))
        assert a == b
        assert c.completion_time >= 2 * 40  # different seed still yields a valid schedule


def _grid(q):
    """(i, j, r, lookahead_x, lookahead_y, ties, coin) over every lookahead, None included."""
    symbols = [None, *range(q)]
    return product((0, 1, 4), (0, 1, 3), range(q), symbols, symbols, (0, 1, 2, 5), (0, 1, 2, 7))


class TestPositionalRules:
    def test_rule_agrees_with_decide(self):
        # bound as a walk binds it: each strand's following symbols as a list
        # of one per symbol, the coins as a stream, asked at a slot emitting r
        for policy, q in ((p, q) for p in policy_catalog() for q in (2, 3, 4)):
            if policy.name == "lf1" and q != 2:
                continue
            for i, j, r, la_x, la_y, ties, coin in _grid(q):
                nx = [q + 1] * i + [la_x, q + 2]
                ny = [q + 3] * j + [la_y, q + 4]
                drawn = []
                coins = lambda: drawn.append(coin) or coin  # noqa: E731
                tie = policy.bind(q, nx, ny, coins if policy.uses_rng else None)
                decided = policy.decide(ctx(i, j, r, q, la_x, la_y, ties, coin))
                assert tie(i, j, r + 1 + q * ties, ties) is (decided is TieDecision.ADVANCE_X)
                assert drawn == ([coin] if policy.uses_rng else [])

    def test_rule_follows_a_replaced_decide(self):
        swapped = dataclasses.replace(get_policy("x-first"), decide=y_first)
        assert swapped.bind(2)(0, 0, 1, 0) is False

    def test_rule_follows_a_decide_wrapped_with_functools_wraps(self):
        seen = []

        @functools.wraps(laggard_first)
        def counted(c):
            seen.append(c)
            return laggard_first(c)

        tie = dataclasses.replace(get_policy("lf"), decide=counted).bind(2)
        assert tie(1, 0, 3, 0) is False
        assert seen == [ctx(1, 0, 0, 2)]

    def test_non_catalog_decide_sees_the_full_context(self):
        seen = []

        def spy(c):
            seen.append(c)
            return TieDecision.ADVANCE_Y

        coins = iter([9, 4]).__next__
        tie = TiePolicy("spy", 1, spy, uses_rng=True).bind(5, [0, 0, 0, 1], [2] * 4 + [None], coins)
        assert tie(3, 4, 8, 7) is False
        assert tie(2, 0, 11, 8) is False
        assert seen == [ctx(3, 4, 2, 5, 1, None, 7, 9), ctx(2, 0, 0, 5, 0, 2, 8, 4)]

    def test_depth_zero_decide_sees_no_lookahead_and_no_coin(self):
        seen = []

        def spy(c):
            seen.append(c)
            return TieDecision.ADVANCE_X

        tie = TiePolicy("spy", 0, spy).bind(3, [1, 2], [2, 1], lambda: pytest.fail("coin drawn"))
        assert tie(0, 1, 5, 2) is True
        assert seen == [ctx(0, 1, 1, 3, None, None, 2, 0)]

    def test_lf1_rule_off_binary_raises(self, monkeypatch):
        # the catalog rule refuses by itself: no adapter builds a TieContext
        monkeypatch.setattr(policies, "TieContext", None)
        tie = get_policy("lf1").bind(3, [1], [0])  # binding alone does not raise
        with pytest.raises(UnsupportedAlphabetError,
                           match="^lf1 is defined only for the binary alphabet, got q=3$"):
            tie(0, 0, 1, 0)

    def test_lf1_off_binary_walks_a_tie_free_pair(self):
        # x advances in slot 1 and y in slot 2: no tie, so no refusal
        assert simulate((0, 2), (1,), get_policy("lf1"), 3)[0].to_string() == "X,Y,X"
        with pytest.raises(UnsupportedAlphabetError):
            simulate((0, 2), (0,), get_policy("lf1"), 3)
