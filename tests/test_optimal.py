"""Exact solver, brute-force oracle, and the runs/LCS bound machinery."""

from __future__ import annotations

import hashlib
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rowsynth import (
    BudgetExceededError,
    DpTable,
    InvalidStrandError,
    TableIntegrityError,
    UnsupportedAlphabetError,
    apply_schedule,
    binary_runs_time,
    complement,
    completion_time,
    dp_solve,
    enumerate_interleavings_min,
    lcs_length,
    lcs_upper_bound,
    optimal_schedule,
    policy_catalog,
    random_strand,
    reconstruct,
    runs_count,
    solo_time,
    t_star,
    trial_rng,
)
from rowsynth import experiments, optimal
from rowsynth.optimal import MAX_TABLE_STATES, MAX_TIE_BITS
from conftest import random_pair

X1 = (1, 3, 2, 2)
Y1 = (0, 1, 3, 0)


class TestDpSolve:
    def test_ordering_example_root_value(self):
        assert dp_solve(X1, Y1, 4).value(0, 0, 0) == 11

    def test_empty_pair_is_all_zero(self):
        table = dp_solve((), (), 2)
        assert all(table.value(0, 0, r) == 0 for r in range(2))

    def test_identical_binary_pair(self):
        assert dp_solve((0, 1, 1), (0, 1, 1), 2).value(0, 0, 0) == 8

    def test_entries_bounded_by_worst_case(self, rng):
        for _ in range(20):
            q = int(rng.integers(2, 5))
            x, y = random_pair(rng, q, int(rng.integers(1, 8)))
            table = dp_solve(x, y, q)
            for i in range(len(x) + 1):
                for j in range(len(y) + 1):
                    for r in range(q):
                        assert 0 <= table.value(i, j, r) <= q * (len(x) + len(y))

    def test_unequal_lengths(self):
        table = dp_solve((0, 1), (1,), 2)
        assert table.value(0, 0, 0) == enumerate_interleavings_min((0, 1), (1,), 2)
        for state in ((3, 0, 0), (0, 2, 0), (0, 0, 2), (-1, 0, 0)):
            with pytest.raises(IndexError, match=rf"^state \({', '.join(map(str, state))}\) outside"):
                table.value(*state)


class TestTStar:
    def test_ordering_example(self):
        assert t_star(X1, Y1, 4) == 11

    def test_identical_binary_pair(self):
        assert t_star((0, 1, 1), (0, 1, 1), 2) == 8

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_worst_case_strands(self, q, length):
        z = (q - 1,) * length
        assert t_star(z, z, q) == 2 * length * q

    def test_refuses_float_symbols(self):
        with pytest.raises(InvalidStrandError, match="position 0"):
            t_star([0.9], [1.5], 2)

    @pytest.mark.parametrize("q, expected", [(2, 21549), (4, 30654)])
    def test_long_strands(self, q, expected):
        """Optima of two strands of 10**4 symbols, recorded on the row-sweep solver."""
        gen = np.random.default_rng(26)
        x, y = gen.integers(0, q, 10**4), gen.integers(0, q, 10**4)
        assert t_star(x.tolist(), y.tolist(), q) == expected


class TestReconstruct:
    def test_ordering_example_witness(self):
        table = dp_solve(X1, Y1, 4)
        result = reconstruct(X1, Y1, table)
        assert result.t_star == 11
        assert apply_schedule(X1, Y1, result.schedule, 4) == 11

    def test_empty_pair(self):
        result = reconstruct((), (), dp_solve((), (), 2))
        assert result.t_star == 0
        assert result.schedule.completion_time == 0

    def test_single_symbol_pair(self):
        result = reconstruct((0,), (0,), dp_solve((0,), (0,), 2))
        assert result.t_star == 3
        assert result.schedule.to_string() == "X,-,Y"

    def test_witness_soundness_random(self, rng):
        for _ in range(60):
            q = int(rng.integers(2, 5))
            x, y = random_pair(rng, q, int(rng.integers(0, 10)))
            result = reconstruct(x, y, dp_solve(x, y, q))
            assert apply_schedule(x, y, result.schedule, q) == result.t_star

    def test_rejects_table_of_other_lengths(self):
        with pytest.raises(TableIntegrityError):
            reconstruct((0, 1), (0,), dp_solve((0,), (0,), 2))

    def test_rejects_corrupted_table(self):
        table = dp_solve((0, 1), (1, 0), 2)
        bad = DpTable(table.q, table.len_x, table.len_y,
                      (table.values[0] + 5,) + table.values[1:])
        with pytest.raises(TableIntegrityError):
            reconstruct((0, 1), (1, 0), bad)

    def test_rejects_table_corrupted_at_a_tie(self):
        # the opening slot is a tie that X wins strictly: 1 + 5 slots against 1 + 7
        x, y = (0, 1, 1), (0, 0, 1)
        table = dp_solve(x, y, 2)
        assert (table.value(0, 0, 0), table.value(1, 0, 1), table.value(0, 1, 1)) == (6, 5, 7)
        values = list(table.values)
        values[(1 * (len(y) + 1) + 0) * 2 + 1] = 8  # value(1, 0, 1): now Y wins the tie
        bad = DpTable(table.q, table.len_x, table.len_y, tuple(values))
        with pytest.raises(TableIntegrityError, match="takes 8 slots, table claims 6"):
            reconstruct(x, y, bad)


@st.composite
def solver_instances(draw):
    q = draw(st.integers(2, 6))
    strand = st.lists(st.integers(0, q - 1), max_size=14).map(tuple)
    return q, draw(strand), draw(strand)


class TestOptimalSchedule:
    @settings(max_examples=400, deadline=None)
    @given(solver_instances())
    def test_equals_table_walk(self, instance):
        q, x, y = instance
        result = optimal_schedule(x, y, q)
        reference = reconstruct(x, y, dp_solve(x, y, q))
        assert result.t_star == reference.t_star
        assert result.schedule == reference.schedule
        assert apply_schedule(x, y, result.schedule, q) == result.t_star

    def test_equals_table_walk_at_length_1000(self):
        x, y = _seeded_pair(10, 2, 1000, 1000)
        result = optimal_schedule(x, y, 2)
        assert result == reconstruct(x, y, dp_solve(x, y, 2))
        assert apply_schedule(x, y, result.schedule, 2) == result.t_star

    def test_refuses_by_cell_count_before_allocating(self, monkeypatch):
        _stub_kernels(monkeypatch)
        x = (0,) * 31623
        with pytest.raises(BudgetExceededError) as err:
            optimal_schedule(x, x, 2)
        assert err.value.required == 31624 * 31624
        assert err.value.budget == MAX_TIE_BITS
        assert "bits" in str(err.value)

    def test_rejects_tie_bits_that_miss_the_optimum(self, monkeypatch):
        tie_rows = optimal._tie_rows

        def flipped(x, y, q):
            root, ties = tie_rows(x, y, q)
            every = (1 << len(y) + 2) - 4  # a row's tie bits, columns 1 to len_y
            return root, [row ^ every for row in ties]

        monkeypatch.setattr(optimal, "_tie_rows", flipped)
        with pytest.raises(TableIntegrityError):
            optimal_schedule((0, 1), (0, 0), 2)

    def test_t_star_builds_no_tie_bits(self, monkeypatch):
        """t_star never runs the tie-bit kernel."""
        def refuse(*args, **kwargs):
            raise AssertionError("t_star ran the tie-bit kernel")

        monkeypatch.setattr(optimal, "_tie_rows", refuse)
        assert t_star(X1, Y1, 4) == 11


@st.composite
def lane_instances(draw, alphabets=st.integers(2, 6), lanes=6, length=20):
    """B pairs sharing one x length and one y length, and a band size for the solver."""
    q = draw(alphabets)
    lanes = draw(st.integers(1, lanes))
    symbols = st.integers(0, q - 1)

    def strands(length):
        strand = st.lists(symbols, min_size=length, max_size=length).map(tuple)
        return draw(st.lists(strand, min_size=lanes, max_size=lanes))

    xs = strands(draw(st.integers(0, length)))
    ys = strands(draw(st.integers(0, length)))
    return q, xs, ys, draw(st.integers(1, 64))


@st.composite
def kernel_instances(draw):
    """lane_instances at each alphabet the bit kernel treats apart, up to 40 lanes; in some, each
    lane's strands end on one symbol."""
    alphabets = st.sampled_from([2, 3, 4, 5, 6, 7, 128, 129, 10**9])
    q, xs, ys, band = draw(lane_instances(alphabets, lanes=40, length=9))
    if xs[0] and ys[0] and draw(st.booleans()):
        ys = [y[:-1] + x[-1:] for x, y in zip(xs, ys)]
    return q, xs, ys, band


@st.composite
def lone_lane_instances(draw):
    """lane_instances of 2 to 6 lanes at the alphabets the one-lane loop treats apart; in some,
    every x, or every y, is one symbol repeated."""
    alphabets = st.sampled_from([2, 3, 4, 7, 128, 129, 300])
    q, xs, ys, band = draw(lane_instances(alphabets, lanes=6, length=12))
    assume(len(xs) >= 2)
    if xs[0] and draw(st.booleans()):
        xs = [x[:1] * len(x) for x in xs]
    if ys[0] and draw(st.booleans()):
        ys = [y[-1:] * len(y) for y in ys]
    return q, xs, ys, band


def _stub_kernels(monkeypatch):
    """Make both solver kernels fail on any call, so a refusal must come first."""
    monkeypatch.setattr(optimal, "_tie_rows", None)
    monkeypatch.setattr(optimal, "_t_star_lanes", None)


def _mask_reads(monkeypatch):
    """A list that records each _mask_blocks call as (tables read, rows of each block).

    One lane that reads its tables as ints gathers no block, so it records nothing.
    """
    calls = []
    gather = optimal._mask_blocks

    def counted(x, wraps, yd, yb, tables):
        rows = []
        calls.append((tables is not None, rows))
        for block in gather(x, wraps, yd, yb, tables):
            rows.append(len(block[0]))
            yield block

    monkeypatch.setattr(optimal, "_mask_blocks", counted)
    return calls


class TestRowSweep:
    """The tie-bit kernel's root, and t_star's lone lane at the table crossover."""

    @settings(max_examples=300, deadline=None)
    @given(solver_instances(), st.integers(1, 64))
    def test_equals_table_root_and_the_oracle(self, instance, band):
        """Blocks of 1 to 64 bytes a mask gather one row at a time as well as several."""
        q, x, y = instance
        with mock.patch.object(optimal, "_CELL_BLOCK", band):
            got = optimal._tie_rows(x, y, q)[0]
        assert got == dp_solve(x, y, q).value(0, 0, 0)
        if len(x) <= 6 and len(y) <= 6:
            assert got == enumerate_interleavings_min(x, y, q)

    @settings(max_examples=100, deadline=None)
    @given(solver_instances())
    def test_one_lane_past_the_crossover_equals_rows(self, instance):
        """From len_x = q on, t_star's one lane reads its masks from symbol tables."""
        q, x, y = instance
        assume(len(x) >= q)
        assert t_star(x, y, q) == optimal._tie_rows(x, y, q)[0] == dp_solve(x, y, q).value(0, 0, 0)

    @pytest.mark.parametrize("q", [2, 4])
    def test_one_lane_equals_rows_at_the_crossover(self, monkeypatch, rng, q):
        """One lane compares symbols at len_x = q - 1 and reads tables at len_x = q."""
        reads = _mask_reads(monkeypatch)
        for len_x in (q - 1, q):
            x, y = random_pair(rng, q, 300)
            x = x[:len_x]
            assert t_star(x, y, q) == dp_solve(x, y, q).value(0, 0, 0)
        assert reads == [(False, [q - 1])]  # only the shorter x gathered masks

    def test_eleven_lanes_at_length_200_split_rows(self, monkeypatch):
        """11 lanes of 26 bytes a mask fill a block with 114 rows, so 200 rows take two blocks."""
        pairs = [random_pair(trial_rng(8, idx), 2, 200) for idx in range(11)]
        xs, ys = zip(*pairs)
        reads = _mask_reads(monkeypatch)
        expected = [dp_solve(x, y, 2).value(0, 0, 0) for x, y in pairs]
        assert optimal._t_star_lanes(xs, ys, 2) == expected
        rows = optimal._CELL_BLOCK // (11 * 26)
        assert rows == 114
        assert reads == [(True, [rows, 200 - rows])]


@st.composite
def pair_instances(draw):
    """A pair at each alphabet the tie-bit kernel treats apart, lengths 0 to 14, and a block of
    1 to 8 bytes a mask; in some the strands end on one symbol, in some a strand is one symbol
    repeated."""
    q = draw(st.sampled_from([2, 3, 4, 7, 128, 129, 300]))
    strand = st.lists(st.integers(0, q - 1), max_size=14).map(tuple)
    x, y = draw(strand), draw(strand)
    if x and y and draw(st.booleans()):
        y = y[:-1] + x[-1:]
    if x and draw(st.booleans()):
        x = x[:1] * len(x)
    if y and draw(st.booleans()):
        y = y[-1:] * len(y)
    return q, x, y, draw(st.integers(1, 8))


class TestTieRows:
    @settings(max_examples=400, deadline=None)
    @given(pair_instances())
    @example((2, (0, 1), (0, 0), 1))
    @example((7, (6, 0, 6, 1, 5), (1, 6, 0, 6), 2))  # unequal end symbols, compared in blocks
    @example((300, (299, 0, 299), (299,), 1))
    def test_tie_bits_follow_the_table_and_the_root_is_t_star(self, instance):
        """At every tie cell the bit is reconstruct's rule on dp_solve's table: set iff Y's entry
        after the tie is the smaller. Comparisons gather their masks in blocks of rows."""
        q, x, y, band = instance
        table = dp_solve(x, y, q)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimal, "_CELL_BLOCK", band)
            reads = _mask_reads(patch)
            root, ties = optimal._tie_rows(x, y, q)
        assert root == t_star(x, y, q) == table.value(0, 0, 0)
        lx, ly = len(x), len(y)
        assert len(ties) == (lx if ly else 0)
        for i, j in product(range(lx), range(ly)):
            if x[i] == y[j]:
                after = (x[i] + 1) % q  # the emission after the tie's slot
                y_wins = table.value(i + 1, j, after) > table.value(i, j + 1, after)
                assert (ties[lx - 1 - i] >> (ly + 1 - j) & 1) == y_wins
        if lx and ly and lx < q:  # comparisons, 2 lanes of whole bytes a mask
            rows = max(1, band // (2 * ((ly + 9) // 8)))
            assert reads == [(False, [min(rows, lx - at) for at in range(0, lx, rows)])]
        else:
            assert reads == []


def _ranked_root(x, y, q):
    """t* from dp_solve's root on the pair with each symbol replaced by its rank among theirs.

    A schedule emitting the merge z takes q N + z[-1] - (q - 1) slots, N
    counting z's first symbol and its non-ascents, and z[-1] < q, so t* is
    the least (N, z[-1]); ranks keep every comparison, hence that least pair.
    """
    syms = sorted(set(x + y))
    if not syms:
        return 0
    rank = {s: k for k, s in enumerate(syms)}
    r = max(2, len(syms))
    t = dp_solve(tuple(map(rank.get, x)), tuple(map(rank.get, y)), r).value(0, 0, 0) + r - 1
    return q * (t // r) + syms[t % r] - (q - 1)


class TestLanes:
    def test_pinned_roots(self):
        """Roots of one fixed-seed lane set, recorded on the kernel that read y through a cost table."""
        gen = np.random.default_rng(37)
        xs = [tuple(gen.integers(0, 5, size=37).tolist()) for _ in range(6)]
        ys = [tuple(gen.integers(0, 5, size=37).tolist()) for _ in range(6)]
        assert optimal._t_star_lanes(xs, ys, 5) == [143, 138, 138, 142, 146, 135]

    @settings(max_examples=300, deadline=None)
    @given(lane_instances())
    @example((3, [(), ()], [(2, 0, 1), (0, 0, 2)], 4))
    @example((2, [(1, 0, 1, 1)] * 3, [()] * 3, 64))
    @example((4, [(3, 1, 0, 2, 2, 1, 3), (0, 0, 1, 3, 2, 2, 0)], [(0,), (3,)], 1))
    def test_each_lane_equals_its_table_root_and_the_oracle(self, instance):
        """Blocks of 1 to 64 bytes a mask gather one row at a time as well as several."""
        q, xs, ys, band = instance
        expected = [dp_solve(x, y, q).value(0, 0, 0) for x, y in zip(xs, ys)]
        for x, y, t in zip(xs, ys, expected):
            if len(x) <= 6 and len(y) <= 6:
                assert t == enumerate_interleavings_min(x, y, q)
        with mock.patch.object(optimal, "_CELL_BLOCK", band):
            assert optimal._t_star_lanes(xs, ys, q) == expected

    @settings(max_examples=200, deadline=None)
    @given(kernel_instances())
    @example((10**9, [(10**9 - 1, 0, 7)] * 40, [(3, 10**9 - 1)] * 40, 1))
    @example((129, [(128, 5), (0, 0)], [(), ()], 2))
    @example((128, [(127, 127, 0)], [(0, 127, 0, 5)], 64))
    @example((2, [(1, 0)] * 3, [(0, 0, 1, 0)] * 3, 3))
    def test_every_alphabet_and_lane_count_equals_the_table_root_and_the_oracle(self, instance):
        """Tables (q <= 128) and comparisons, one lane and many, rows blocked one at a time. Where
        dp_solve's table at q would be large, its table on the symbols' ranks is the reference."""
        q, xs, ys, band = instance
        with mock.patch.object(optimal, "_CELL_BLOCK", band):
            got = optimal._t_star_lanes(xs, ys, q)
        for x, y, t in zip(xs, ys, got):
            if (len(x) + 1) * (len(y) + 1) * q <= 10**4:
                assert t == dp_solve(x, y, q).value(0, 0, 0)
            else:
                assert t == _ranked_root(x, y, q)
            if len(x) + len(y) <= 8:
                assert t == enumerate_interleavings_min(x, y, q)
        assert got == [optimal._tie_rows(x, y, q)[0] for x, y in zip(xs, ys)]

    @pytest.mark.parametrize("q", [127, 128, 129])
    @pytest.mark.parametrize("lanes, len_x", [(1, 127), (1, 128), (1, 130), (3, 129)])
    def test_tables_and_comparisons_at_their_bounds(self, q, lanes, len_x):
        """Tables from q <= 128 and len_x >= q on, comparisons elsewhere, and one row a block."""
        pairs = [_seeded_pair(q + b, q, len_x, 40) for b in range(lanes)]
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        expected = [dp_solve(x, y, q).value(0, 0, 0) for x, y in pairs]
        assert optimal._t_star_lanes(xs, ys, q) == expected
        with mock.patch.object(optimal, "_CELL_BLOCK", 1):
            assert optimal._t_star_lanes(xs, ys, q) == expected

    @settings(max_examples=200, deadline=None)
    @given(lone_lane_instances())
    @example((2, [(1, 1, 1, 1), (0, 1, 0, 1)], [(0, 0, 0), (1, 0, 1)], 64))
    @example((129, [(128, 0, 128), (5, 70, 128)], [(128,), (0,)], 1))
    def test_each_lone_lane_equals_its_block_and_the_table_root(self, instance):
        """One lane runs its own loop; the same pair inside a many-lane block runs the other."""
        q, xs, ys, band = instance
        with mock.patch.object(optimal, "_CELL_BLOCK", band):
            block = optimal._t_star_lanes(xs, ys, q)
            lone = [optimal._t_star_lanes([x], [y], q)[0] for x, y in zip(xs, ys)]
        assert lone == block
        for x, y, t in zip(xs, ys, lone):
            if (len(x) + 1) * (len(y) + 1) * q <= 2 * 10**4:
                assert t == dp_solve(x, y, q).value(0, 0, 0)

    @pytest.mark.parametrize("q", [2, 3, 4, 7, 128, 129, 300])
    @pytest.mark.parametrize("extra", [-1, 5])
    def test_lone_lane_reads_tables_or_compares_on_rows_of_both_wrap_bits(self, monkeypatch, q,
                                                                          extra):
        """len_x = q - 1 compares symbols, len_x = q + 5 reads tables up to q = 128."""
        pairs = [_seeded_pair(q + b, q, q + extra, 40) for b in range(3)]
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        x = xs[0]
        if len(x) >= 3:  # a = 1 rows and a = 0 rows
            assert {x[i] <= x[i - 1] for i in range(1, len(x))} == {True, False}
        reads = _mask_reads(monkeypatch)
        lone = optimal._t_star_lanes([x], [ys[0]], q)
        tabled = q <= 128 and extra > 0
        assert reads == ([] if tabled else [(False, [len(x)])])
        assert lone == optimal._t_star_lanes(xs, ys, q)[:1] == [dp_solve(x, ys[0], q).value(0, 0, 0)]

    @pytest.mark.parametrize("q", [2, 4, 129])
    def test_lone_lane_on_one_symbol_and_ascending_strands(self, q):
        """x of one symbol makes every row an a = 1 row; an ascending x makes all but row 1 a = 0."""
        ascending = tuple(range(min(q, 6)))
        for x, y in [((q - 1,) * 9, (0,) * 7), ((0,) * 9, (q - 1,) * 7), ((1,) * 9, (1,) * 9),
                     (ascending, ascending[::-1]), (ascending, (0,) * 5), ((0,), ascending)]:
            expected = dp_solve(x, y, q).value(0, 0, 0)
            assert optimal._t_star_lanes([x], [y], q) == [expected]
            assert optimal._t_star_lanes([x, y[:1] * len(x)], [y, x[:1] * len(y)], q)[0] == expected

    @pytest.mark.parametrize("q", [2, 4, 129])
    def test_t_star_at_length_2000_equals_the_block(self, q):
        """At q = 129 the lone lane compares symbols over several blocks of rows."""
        pairs = [_seeded_pair(40 + b, q, 2000, 1999) for b in range(3)]
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        assert [t_star(x, y, q) for x, y in pairs] == optimal._t_star_lanes(xs, ys, q)

    @pytest.mark.parametrize("q", [129, 300, 10**6])
    def test_large_alphabets_on_few_symbols_equal_the_table_root(self, monkeypatch, q):
        """Strands of 5 symbols of a large alphabet compare their rows with y, one lane or three,
        in t_star and in the tie-bit kernel; dp_solve's table agrees, or at q = 10**6, where its
        table would hold q values a cell, the oracle."""
        gen = trial_rng(q, 0)
        syms = (0, 1, q // 2, q - 2, q - 1)
        pairs = [tuple(tuple(gen.choice(syms, n).tolist()) for n in (10, 5)) for _ in range(3)]
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        reads = _mask_reads(monkeypatch)
        got = [t_star(x, y, q) for x, y in pairs]
        assert got == optimal._t_star_lanes(xs, ys, q)
        assert got == [optimal._tie_rows(x, y, q)[0] for x, y in pairs]
        assert reads == [(False, [10])] * 7  # 3 lone lanes, the block of 3, 3 tie-bit solves
        for (x, y), t in zip(pairs, got):
            if q < 10**6:
                table = dp_solve(x, y, q)
                assert table.value(0, 0, 0) == t
                assert optimal_schedule(x, y, q) == reconstruct(x, y, table)
            else:
                assert enumerate_interleavings_min(x, y, q) == t

    @settings(max_examples=200, deadline=None)
    @given(solver_instances(), st.integers(1, 64))
    def test_band_size_changes_no_table_and_no_schedule(self, instance, band):
        q, x, y = instance
        reference = dp_solve(x, y, q), optimal_schedule(x, y, q)
        with mock.patch.object(optimal, "_CELL_BLOCK", band):
            assert (dp_solve(x, y, q), optimal_schedule(x, y, q)) == reference


def _no_tables():
    """Make both bit kernels compare every row's symbols with y, as where tables would not pay."""
    lanes = optimal._lanes

    def untabled(x, y, q):
        width, wraps, yd, yb, _, starts, c = lanes(x, y, q)
        return width, wraps, yd, yb, None, starts, c

    return mock.patch.object(optimal, "_lanes", untabled)


class TestTables:
    """The bit kernels' D and B1 read from per-symbol tables where those pay, and compared from y
    elsewhere: both give the same roots and the same tie bits."""

    @settings(max_examples=100, deadline=None)
    @given(lane_instances(st.integers(2, 4), lanes=1, length=24))
    def test_tables_equal_comparisons_and_the_table_root(self, instance):
        q, (x,), (y,), band = instance
        assume(len(x) >= q)  # both kernels table every symbol
        expected = dp_solve(x, y, q).value(0, 0, 0)
        tabled = optimal._tie_rows(x, y, q)
        assert tabled[0] == t_star(x, y, q) == expected
        # comparisons, in blocks of rows of 1 to 64 bytes a mask
        with _no_tables(), mock.patch.object(optimal, "_CELL_BLOCK", band):
            assert optimal._tie_rows(x, y, q) == tabled
            assert t_star(x, y, q) == expected

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_tie_bits_equal_under_tables_and_comparisons(self, monkeypatch, q):
        x, y = _seeded_pair(23 + q, q, 40, 33)
        reference = reconstruct(x, y, dp_solve(x, y, q))
        reads = _mask_reads(monkeypatch)
        assert optimal_schedule(x, y, q) == reference
        with _no_tables():
            assert optimal_schedule(x, y, q) == reference
        assert reads == [(False, [40])]  # only the second compared symbols

    def test_block_past_the_table_budget_compares_symbols(self, monkeypatch):
        """Past q = 128 no table is built, even where x is longer than its alphabet would need:
        both kernels compare its rows with y."""
        q = 10**6
        xs = [(q - 1, 0, 5, 5, q - 2, 1) * 2, (3, 3, 2, 1, 0, q - 1) * 2]
        ys = [(0, q - 1, 2, 2, 7), (q - 1, q - 1, 0, 1, 2)]
        expected = [enumerate_interleavings_min(x, y, q) for x, y in zip(xs, ys)]
        reads = _mask_reads(monkeypatch)
        assert [t_star(x, y, q) for x, y in zip(xs, ys)] == expected
        assert [optimal._tie_rows(x, y, q)[0] for x, y in zip(xs, ys)] == expected
        assert reads == [(False, [12])] * 4

    def test_one_block_compares_symbols(self, monkeypatch):
        """An x shorter than its alphabet builds no tables for the tie-bit kernel: they would not
        pay. From len_x = q on it reads them."""
        reads = _mask_reads(monkeypatch)
        for len_x in (3, 4):
            x, y = _seeded_pair(3, 4, len_x, 100)
            assert optimal_schedule(x, y, 4) == reconstruct(x, y, dp_solve(x, y, 4))
        assert reads == [(False, [3])]


@st.composite
def split_instances(draw, alphabets=st.integers(2, 7)):
    """lane_instances with len_x >= 1, and a row block size."""
    q, xs, ys, _ = draw(lane_instances(alphabets, lanes=8, length=16))
    assume(xs[0])
    return q, xs, ys, draw(st.integers(1, 64))


class TestSplitSweep:
    """The bit kernel's sweep split into blocks of rows, at most _CELL_BLOCK bytes of each mask a
    block: splitting changes no optimum, from tables or from comparisons."""

    @settings(max_examples=150, deadline=None)
    @given(split_instances())
    @example((2, [(1,)], [()], 1))  # one symbol, no y
    @example((3, [(2, 0)], [(1,)], 64))  # one lane compares symbols, len_x < q
    @example((4, [(3, 1, 0)] * 2, [(0, 3)] * 2, 5))  # unequal lengths
    @example((5, [(4,) * 7, (0,) * 7], [(4, 3, 2, 1, 0, 4)] * 2, 2))  # every symbol wraps
    @example((2, [(0, 1) * 8] * 8, [(1, 0) * 8] * 8, 64))  # eight lanes
    def test_equals_the_table_root_the_oracle_and_the_unsplit_sweep(self, instance):
        q, xs, ys, band = instance
        expected = [dp_solve(x, y, q).value(0, 0, 0) for x, y in zip(xs, ys)]
        for x, y, t in zip(xs, ys, expected):
            if len(x) + len(y) <= 12:
                assert t == enumerate_interleavings_min(x, y, q)
        assert [optimal._tie_rows(x, y, q)[0] for x, y in zip(xs, ys)] == expected
        # blocks of a few rows; then the whole sweep as one block
        for block in (band, 1 << 40):
            with mock.patch.object(optimal, "_CELL_BLOCK", block):
                assert optimal._t_star_lanes(xs, ys, q) == expected

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("lanes, len_x, len_y", [(1, 200, 200), (3, 131, 90), (8, 64, 1)])
    def test_long_lanes_read_the_tables(self, monkeypatch, q, lanes, len_x, len_y):
        """Several lanes gather their masks from the tables, in one block or in blocks of 16
        rows; one lane reads its tables as ints and gathers no block."""
        pairs = [_seeded_pair(100 * q + b, q, len_x, len_y) for b in range(lanes)]
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        expected = [dp_solve(x, y, q).value(0, 0, 0) for x, y in pairs]
        assert expected[0] == t_star(xs[0], ys[0], q)
        reads = _mask_reads(monkeypatch)
        mask = lanes * ((len_y + 9) // 8)  # bytes a mask
        for block in (optimal._CELL_BLOCK, 16 * mask):
            with mock.patch.object(optimal, "_CELL_BLOCK", block):
                assert optimal._t_star_lanes(xs, ys, q) == expected
        split = [min(16, len_x - at) for at in range(0, len_x, 16)]
        assert reads == ([] if lanes == 1 else [(True, [len_x]), (True, split)])

    def test_overflowing_tables_split_on_comparisons(self, monkeypatch):
        """Past q = 128 the kernel builds no tables: it compares symbols, a row a block or all."""
        q = 10**6
        reads = _mask_reads(monkeypatch)
        xs = [(q - 1, 0, 5, 5, q - 2, 1), (3, 3, 2, 1, 0, q - 1)]
        ys = [(0, q - 1, 2, 2, 7), (q - 1, q - 1, 0, 1, 2)]
        expected = [enumerate_interleavings_min(x, y, q) for x, y in zip(xs, ys)]
        for block in (1, 1 << 40):
            with mock.patch.object(optimal, "_CELL_BLOCK", block):
                assert optimal._t_star_lanes(xs, ys, q) == expected
        assert reads == [(False, [1] * 6), (False, [6])]

    @pytest.mark.parametrize("len_x, kernels", [(3, [3]), (4, [4]), (5, [4, 1])])
    def test_lanes_split_from_the_split_threshold(self, monkeypatch, len_x, kernels):
        """Two lanes of 1 byte a mask fill an 8-byte block with 4 rows, so a fifth row splits the
        sweep; ``kernels`` lists the rows of each block the kernel runs."""
        monkeypatch.setattr(optimal, "_CELL_BLOCK", 8)
        xs, ys = [(1, 0, 1, 1, 0)[:len_x], (0, 0, 1, 1, 1)[:len_x]], [(1, 1, 0), (0, 1, 0)]
        expected = [dp_solve(x, y, 2).value(0, 0, 0) for x, y in zip(xs, ys)]
        reads = _mask_reads(monkeypatch)
        assert optimal._t_star_lanes(xs, ys, 2) == expected
        assert reads == [(True, kernels)]

    def test_split_threshold_reaches_t_star(self, monkeypatch):
        """t_star's one lane at q = 129 compares symbols, 13 bytes a mask at len_y = 100, so
        _CELL_BLOCK // 13 rows fill a block and one row more splits the sweep. dp_solve's table
        would be past its budget here, so the optima are literals, recorded on the numpy row sweep
        the tie-bit kernel replaced."""
        rows = optimal._CELL_BLOCK // 13
        x, y = _seeded_pair(5, 129, rows + 1, 100)
        expected = [161835, 161706]  # x, then x without its first symbol
        reads = _mask_reads(monkeypatch)
        assert [t_star(z, y, 129) for z in (x, x[1:])] == expected
        assert reads == [(False, [rows, 1]), (False, [rows])]
        assert [optimal._tie_rows(z, y, 129)[0] for z in (x, x[1:])] == expected


class TestSolverRange:
    """No value exceeds q * (len_x + len_y), so int64 holds it; larger alphabets are refused first."""

    def test_large_alphabet(self):
        assert t_star((0,), (1,), 10**8) == 2

    def test_largest_alphabet_below_the_range(self):
        q = (optimal._UNREACHABLE - 1) // 4  # q * (2 + 1 + 1) just below it
        assert t_star((1, 0), (0,), q) == q + 1
        assert t_star((q - 1, q - 2), (q - 1,), q) == 2 * q  # a tie at slot q costs a round
        lanes = optimal._t_star_lanes([(1, 0), (q - 1, q - 2)], [(0,), (q - 1,)], q)
        assert lanes == [q + 1, 2 * q]

    @pytest.mark.parametrize("len_x, len_y, q", [  # each id's last part only keeps it stable
        pytest.param(3, 3, (2**30 - 1) // 7, id="3-3-153391689-int32"),  # q * 7 = 2**30 - 1
        pytest.param(4, 3, 2**30 // 8, id="4-3-134217728-int64"),  # q * 8 = 2**30
    ])
    def test_value_type_boundary(self, len_x, len_y, q):
        """Each side of q (len_x + len_y + 1) = 2**30, every kernel agrees with the oracle."""
        # each pair opens on a tie at slot q that costs a round; in the first
        # every symbol wraps
        xs = [tuple(q - 1 - k for k in range(len_x)), (q - 1, 0, q - 2, 1)[:len_x]]
        ys = [tuple(q - 1 - k for k in range(len_y)), (q - 1, q - 1, 3)]
        expected = [enumerate_interleavings_min(x, y, q) for x, y in zip(xs, ys)]
        assert [t_star(x, y, q) for x, y in zip(xs, ys)] == expected
        # optimal_schedule refuses these optima past MAX_SCHEDULE_SLOTS
        assert [optimal._tie_rows(x, y, q)[0] for x, y in zip(xs, ys)] == expected
        assert optimal._t_star_lanes(xs, ys, q) == expected

    @pytest.mark.parametrize("q", [  # each id's last part only keeps it stable
        pytest.param((2**30 - 1) // 13, id="82595524-int32"),  # 13 q = 2**30 - 1
        pytest.param((2**30 - 1) // 13 + 1, id="82595525-int64"),
    ])
    def test_split_value_type_boundary(self, q):
        """A 6 + 6 pair spans 13 q: on each side of 13 q = 2**30 the tie-bit kernel, its masks
        gathered a row a block or all at once, and the bit kernel agree with the oracle."""
        # every symbol wraps in the first pair
        xs = [tuple(q - 1 - k for k in range(6)), (q - 1, 0, q - 2, 1, 0, q - 1)]
        ys = [tuple(q - 1 - k for k in range(6)), (q - 1, q - 1, 3, 0, q - 2, 2)]
        expected = [enumerate_interleavings_min(x, y, q) for x, y in zip(xs, ys)]
        for block in (1, 1 << 40):
            with mock.patch.object(optimal, "_CELL_BLOCK", block):
                assert [optimal._tie_rows(x, y, q)[0] for x, y in zip(xs, ys)] == expected
        assert optimal._t_star_lanes(xs, ys, q) == expected

    def test_split_block_past_the_int64_range_runs_unsplit(self, monkeypatch):
        """Lanes hold no value scaled by q, so two lanes of 4 q each, 8 q past 2**60 together,
        run as one block of lanes, split into blocks of rows or not."""
        q = (optimal._UNREACHABLE - 1) // 4  # q * (2 + 1 + 1) just below it
        reads = _mask_reads(monkeypatch)
        for block in (1, 1 << 40):
            with mock.patch.object(optimal, "_CELL_BLOCK", block):
                got = optimal._t_star_lanes([(1, 0), (q - 1, q - 2)], [(0,), (q - 1,)], q)
            assert got == [q + 1, 2 * q]
        assert reads == [(False, [1, 1]), (False, [2])]

    @settings(max_examples=150, deadline=None)
    @given(lane_instances(st.sampled_from([2, 3, 4, 5, 6, 10**9]), lanes=4, length=6))
    def test_lanes_and_schedule_equal_the_oracle(self, instance):
        """A schedule lists every slot, so past MAX_SCHEDULE_SLOTS it is refused instead."""
        q, xs, ys, _ = instance
        expected = [enumerate_interleavings_min(x, y, q) for x, y in zip(xs, ys)]
        assert optimal._t_star_lanes(xs, ys, q) == expected
        for x, y, t in zip(xs, ys, expected):
            if t <= optimal.MAX_SCHEDULE_SLOTS:
                assert optimal_schedule(x, y, q).t_star == t
            else:
                with pytest.raises(BudgetExceededError) as err:
                    optimal_schedule(x, y, q)
                assert err.value.required == t

    def test_values_keep_their_type_under_value_based_promotion(self, monkeypatch):
        """numpy 1.x keeps an int8 array times a small scalar in int8, where NEP 50 gives the
        values' int32 or int64; the kernels ask for that type by ``dtype``."""
        x, y = (1, 1, 0, 1) * 20, (0, 1, 0, 0) * 20

        def solve():
            rows = [optimal._tie_rows(a, b, 2)[0] for a, b in ((x, y), (y, x), (x, x))]
            return t_star(x, y, 2), optimal_schedule(x, y, 2), dp_solve(x, y, 2).values, rows

        expected = solve()
        assert expected[0] > 127  # would wrap in int8
        assert expected[3][0] == expected[0]
        multiply = np.multiply

        def value_based(a, b, *args, **kwargs):
            product = multiply(a, b, *args, **kwargs)
            if "dtype" in kwargs or np.ndim(b) or not isinstance(a, np.ndarray):
                return product
            return product.astype(a.dtype)

        monkeypatch.setattr(np, "multiply", value_based)
        assert solve() == expected

    @pytest.mark.parametrize("solve", [t_star, optimal_schedule])
    def test_refuses_past_the_int64_range_before_allocating(self, monkeypatch, solve):
        _stub_kernels(monkeypatch)
        q = optimal._UNREACHABLE // 3 + 1  # q * (1 + 1 + 1) reaches it
        with pytest.raises(UnsupportedAlphabetError, match="2\\*\\*60"):
            solve((0,), (1,), q)

    def test_conjecture_refuses_before_drawing(self, monkeypatch):
        monkeypatch.setattr(experiments, "_map_trials", None)  # any trial would fail
        with pytest.raises(UnsupportedAlphabetError):
            experiments.estimate_optimal_time(experiments.ExperimentConfig(10**18, 1, 2))

    @pytest.mark.parametrize("len_x, len_y", [(0, 0), (2, 1), (5, 9), (400, 3)])
    def test_range_check_refuses_exactly_where_no_value_type_holds(self, len_x, len_y):
        """Each side of q (len_x + len_y + 1) = 2**60: below it int64 holds the values and
        _check_range passes; from it on _check_range refuses."""
        q = (2**60 - 1) // (len_x + len_y + 1)  # the widest alphabet below the bound
        optimal._check_range(q, len_x, len_y)
        with pytest.raises(UnsupportedAlphabetError, match="2\\*\\*60"):
            optimal._check_range(q + 1, len_x, len_y)

    @pytest.mark.parametrize("q", [  # each id's last part only keeps it stable
        pytest.param(128, id="128-int8"), pytest.param(129, id="129-int64")])
    def test_symbol_type_boundary(self, q):
        """Each side of q = 128, where the bit kernels' tables stop, both kernels agree with the
        oracle."""
        xs = [(q - 1, 0, q - 1, q - 2), (q - 2, q - 1, 1, q - 1)]
        ys = [(q - 1, q - 1, 0, 1), (0, q - 1, q - 2, q - 1)]
        expected = [enumerate_interleavings_min(x, y, q) for x, y in zip(xs, ys)]
        assert [optimal._tie_rows(x, y, q)[0] for x, y in zip(xs, ys)] == expected
        assert optimal._t_star_lanes(xs, ys, q) == expected


class TestInterleavingOracle:
    def test_identical_binary_pair(self):
        assert enumerate_interleavings_min((0, 1, 1), (0, 1, 1), 2) == 8

    def test_ordering_example(self):
        assert enumerate_interleavings_min(X1, Y1, 4) == 11

    def test_single_symbol_against_empty(self):
        assert enumerate_interleavings_min((0,), (), 2) == 1

    def test_budget_refusal_names_required_count(self):
        with pytest.raises(BudgetExceededError) as err:
            enumerate_interleavings_min((0,) * 12, (1,) * 12, 2, budget=1000)
        assert err.value.required == 2704156

    def test_agrees_with_solver_on_random_instances(self, rng):
        for q, length, n in ((3, 4, 60), (4, 5, 60), (5, 4, 40)):
            for _ in range(n):
                x, y = random_pair(rng, q, length)
                assert t_star(x, y, q) == enumerate_interleavings_min(x, y, q)

    def test_agrees_with_solver_exhaustively_tiny_binary(self):
        for lx in range(4):
            for x in product(range(2), repeat=lx):
                for y in product(range(2), repeat=3):
                    assert t_star(x, y, 2) == enumerate_interleavings_min(x, y, 2)


class TestRunsCount:
    def test_alternating_with_final_repeat(self):
        assert runs_count((0, 1, 0, 1, 0, 1, 0, 0)) == 6

    def test_constant(self):
        assert runs_count((0, 0, 0)) == 0

    def test_single_change(self):
        assert runs_count((0, 1)) == 1

    def test_short(self):
        assert runs_count(()) == 0
        assert runs_count((1,)) == 0


class TestBinaryRunsTime:
    def test_alternating_with_final_repeat(self):
        assert binary_runs_time((0, 1, 0, 1, 0, 1, 0, 0)) == 9

    def test_single_zero(self):
        assert binary_runs_time((0,)) == 1

    def test_single_one(self):
        assert binary_runs_time((1,)) == 2

    def test_rejects_non_binary(self):
        with pytest.raises(UnsupportedAlphabetError):
            binary_runs_time((0, 2))

    def test_rejects_empty(self):
        with pytest.raises(InvalidStrandError):
            binary_runs_time(())

    def test_rejects_non_integer_symbols(self):
        with pytest.raises(InvalidStrandError, match="position 1"):
            binary_runs_time((0, 1.0))

    def test_equals_solo_time_up_to_length_ten(self):
        for n in range(1, 11):
            for z in product(range(2), repeat=n):
                assert binary_runs_time(z) == solo_time(z, 2)


def reference_lcs(u, v) -> int:
    """Quadratic rolling-row LCS DP, the reference for the bit-parallel lcs_length."""
    prev = [0] * (len(v) + 1)
    for a in u:
        cur = [0]
        for k, b in enumerate(v, start=1):
            cur.append(prev[k - 1] + 1 if a == b else max(prev[k], cur[k - 1]))
        prev = cur
    return prev[-1]


@st.composite
def lcs_pairs(draw):
    k = draw(st.integers(2, 3))
    strand = st.lists(st.integers(0, k - 1), max_size=14).map(tuple)
    return draw(strand), draw(strand)


class TestLcs:
    @settings(max_examples=400, deadline=None)
    @given(lcs_pairs())
    def test_equals_quadratic_dp(self, pair):
        u, v = pair
        assert lcs_length(u, v) == reference_lcs(u, v)

    def test_equals_quadratic_dp_at_length_300(self, rng):
        for q in (2, 4):
            u, v = random_pair(rng, q, 300)
            assert lcs_length(u, v) == reference_lcs(u, v)

    def test_known_pair(self):
        assert lcs_length((0, 1, 1, 0), (1, 0, 1, 1)) == 3

    def test_self(self):
        w = (0, 1, 0, 0, 1)
        assert lcs_length(w, w) == len(w)

    def test_disjoint(self):
        assert lcs_length((0, 0), (1, 1)) == 0

    def test_empty(self):
        assert lcs_length((), (0, 1)) == 0


class TestLcsUpperBound:
    def test_worked_pair(self):
        assert lcs_upper_bound((0, 1, 1, 0), (0, 1, 0, 0)) == 10

    def test_complementary_pair_gives_floor(self):
        y = (0, 1, 1, 0, 1)
        assert lcs_upper_bound(complement(y), y) == 2 * len(y)

    def test_forced_by_formula(self):
        assert lcs_upper_bound((0, 0), (1, 1)) == 4

    def test_rejects_non_binary(self):
        with pytest.raises(UnsupportedAlphabetError):
            lcs_upper_bound((0, 2), (0, 1))

    def test_rejects_unequal_lengths(self):
        with pytest.raises(InvalidStrandError):
            lcs_upper_bound((0, 1), (0,))

    def test_bounds_the_optimum(self, rng):
        for _ in range(80):
            x, y = random_pair(rng, 2, 16)
            assert t_star(x, y, 2) <= lcs_upper_bound(x, y)


class TestSandwich:
    def test_optimum_between_max_solo_and_every_policy(self, rng):
        for _ in range(60):
            q = int(rng.integers(2, 5))
            x, y = random_pair(rng, q, int(rng.integers(1, 12)))
            opt = t_star(x, y, q)
            assert max(solo_time(x, q), solo_time(y, q)) <= opt
            for policy in policy_catalog():
                if policy.name == "lf1" and q != 2:
                    continue
                assert opt <= completion_time(x, y, policy, q, rng)


def _seeded_pair(seed, q, len_x, len_y):
    gen = trial_rng(seed, 0)
    return random_strand(q, len_x, gen), random_strand(q, len_y, gen)


class TestSolverGolden:
    """Outputs of the original (i, j, r) triple-loop solver, pinned before it was replaced."""

    @pytest.mark.parametrize("seed, q, len_x, len_y, expected", [
        (2, 2, 200, 200, 433),
        (4, 4, 300, 300, 941),
        (3, 3, 150, 90, 320),
        (5, 3, 0, 40, 80),
        (6, 5, 25, 0, 67),
    ])
    def test_t_star(self, seed, q, len_x, len_y, expected):
        x, y = _seeded_pair(seed, q, len_x, len_y)
        assert t_star(x, y, q) == expected

    @pytest.mark.parametrize("seed, len_x, len_y, size, digest", [
        (7, 60, 60, 11163, "df5df3116cdb58c52c974d57c194342d041ad27c01e7a6bce31137a1513072cc"),
        (8, 61, 47, 8928, "41395db070b3a398a7b39717f41fced19703bb5d661d130ecd0696ee4e8d5ee9"),
    ])
    def test_table_values(self, monkeypatch, seed, len_x, len_y, size, digest):
        """dp_solve is the reference for the fast solvers, so it and reconstruct run without them."""
        _stub_kernels(monkeypatch)
        x, y = _seeded_pair(seed, 3, len_x, len_y)
        table = dp_solve(x, y, 3)
        values = table.values
        assert len(values) == size
        assert all(type(v) is int for v in values)
        assert hashlib.sha256(",".join(map(str, values)).encode()).hexdigest() == digest
        result = reconstruct(x, y, table)
        assert apply_schedule(x, y, result.schedule, 3) == result.t_star == values[0]


class TestSolverDifferential:
    def test_t_star_equals_table_root_equals_oracle_unequal_lengths(self, rng):
        for _ in range(150):
            q = int(rng.integers(2, 6))
            len_x, len_y = (int(n) for n in rng.integers(0, 8, size=2))
            x = tuple(rng.integers(0, q, size=len_x).tolist())
            y = tuple(rng.integers(0, q, size=len_y).tolist())
            opt = t_star(x, y, q)
            assert opt == dp_solve(x, y, q).value(0, 0, 0) == enumerate_interleavings_min(x, y, q)


class TestTableBudget:
    def test_refuses_by_strand_length_before_allocating(self):
        x = (0,) * 4000
        with pytest.raises(BudgetExceededError) as err:
            dp_solve(x, x, 2)
        assert err.value.required == 4001 * 4001 * 2
        assert err.value.budget == MAX_TABLE_STATES
        assert "states" in str(err.value)
        assert "interleavings" not in str(err.value)

    def test_t_star_has_no_budget(self):
        x = (1,) * 4000
        assert t_star(x, x, 2) == 2 * 2 * 4000
