"""Exact solver, brute-force oracle, and the runs/LCS bound machinery."""

from __future__ import annotations

import hashlib
import math
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
        row_sweep = optimal._row_sweep

        def flipped(x, y, q, ties):
            root = row_sweep(x, y, q, ties)
            ties[:] = [bytes(255 - b for b in row) for row in ties]
            return root

        monkeypatch.setattr(optimal, "_row_sweep", flipped)
        with pytest.raises(TableIntegrityError):
            optimal_schedule((0, 1), (0, 0), 2)

    def test_t_star_builds_no_tie_bits(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("t_star packed tie bits")

        monkeypatch.setattr(optimal.np, "packbits", refuse)
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


def _stub_kernels(monkeypatch):
    """Make both solver kernels fail on any call, so a refusal must come first."""
    monkeypatch.setattr(optimal, "_row_sweep", None)
    monkeypatch.setattr(optimal, "_wavefront", None)


def _spy_kernels(monkeypatch):
    """A list that names each solver kernel as it is called."""
    calls = []

    def spy(name):
        solve = getattr(optimal, name)

        def counted(*args):
            calls.append(name)
            return solve(*args)
        return counted

    for name in ("_split_sweep", "_row_sweep", "_wavefront"):
        monkeypatch.setattr(optimal, name, spy(name))
    return calls


def _kernels_called(monkeypatch, xs, ys, q):
    """_t_star_lanes' optima of the pairs and the kernels it called to solve them."""
    calls = _spy_kernels(monkeypatch)
    return optimal._t_star_lanes(xs, ys, q), calls


def _kernel_at(monkeypatch, lanes, row_cells):
    """The kernel that solves ``lanes`` copies of a 3-cell-row pair under _ROW_CELLS = row_cells."""
    expected = [t_star((0, 1, 1), (1, 0), 2)] * lanes
    monkeypatch.setattr(optimal, "_ROW_CELLS", row_cells)
    got, calls = _kernels_called(monkeypatch, [(0, 1, 1)] * lanes, [(1, 0)] * lanes, 2)
    assert got == expected
    return calls


class TestRowSweep:
    @settings(max_examples=300, deadline=None)
    @given(solver_instances(), st.integers(1, 64))
    def test_equals_table_root_and_the_oracle(self, instance, band):
        """Blocks of 1 to 64 cells split rows as well as holding several."""
        q, x, y = instance
        with mock.patch.object(optimal, "_CELL_BLOCK", band):
            got, = optimal._row_sweep([x], [y], q)
        assert got == dp_solve(x, y, q).value(0, 0, 0)
        if len(x) <= 6 and len(y) <= 6:
            assert got == enumerate_interleavings_min(x, y, q)

    @pytest.mark.parametrize("lanes, over, kernel", [
        (1, 0, "_row_sweep"), (1, 1, "_wavefront"),
        (2, 0, "_row_sweep"), (2, 1, "_wavefront"),
        (5, 0, "_row_sweep"), (5, 1, "_wavefront"),
    ])
    def test_lanes_sweep_rows_up_to_the_cell_threshold(self, monkeypatch, lanes, over, kernel):
        """B lanes of 3 cells a row sweep rows at B * 3 = _ROW_CELLS, not one cell past it."""
        assert _kernel_at(monkeypatch, lanes, lanes * 3 - over) == [kernel]

    @pytest.mark.parametrize("crossover, kernel", [(3, "_row_sweep"), (2, "_wavefront")])
    def test_one_pair_runs_one_lane_from_the_crossover(self, monkeypatch, crossover, kernel):
        # the pair's shorter strand has 2 symbols, so a row has 3 cells
        assert _kernel_at(monkeypatch, 1, crossover) == [kernel]

    @settings(max_examples=100, deadline=None)
    @given(solver_instances(), st.integers(0, 8))
    def test_one_lane_past_the_crossover_equals_rows(self, instance, crossover):
        q, x, y = instance
        with mock.patch.object(optimal, "_ROW_CELLS", crossover):
            assert [t_star(x, y, q)] == optimal._row_sweep([x], [y], q)

    @pytest.mark.parametrize("q", [2, 4])
    def test_one_lane_equals_rows_at_the_crossover(self, rng, q):
        x, y = random_pair(rng, q, optimal._ROW_CELLS)  # one cell a row past it
        assert [t_star(x, y, q)] == optimal._row_sweep([x], [y], q)

    def test_eleven_lanes_at_length_200_split_rows(self, monkeypatch):
        """A conjecture block of 11 trials at q=2, L=200, 2,211 cells a row, is under the crossover."""
        pairs = [random_pair(trial_rng(8, idx), 2, 200) for idx in range(11)]
        expected = [t_star(x, y, 2) for x, y in pairs]
        xs, ys = zip(*pairs)
        assert _kernels_called(monkeypatch, xs, ys, 2) == (expected, ["_split_sweep", "_row_sweep"])

    def test_a_full_trial_block_at_length_200_runs_the_wavefront(self, monkeypatch):
        """conjecture's 40 lanes of 201 cells a row, one block of the trial pass, are past it."""
        trials = optimal._LANE_CELLS // 201
        assert trials == 40
        expected = tuple(t_star(*random_pair(trial_rng(8, idx), 2, 200), 2) for idx in range(trials))
        calls = _spy_kernels(monkeypatch)
        config = experiments.ExperimentConfig(2, 200, trials, 8)
        assert experiments.estimate_optimal_time(config).times == expected
        assert calls == ["_wavefront"]


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
        """Rows and the wavefront, each forced by the cell threshold, on the same lanes."""
        q, xs, ys, band = instance
        expected = [dp_solve(x, y, q).value(0, 0, 0) for x, y in zip(xs, ys)]
        for x, y, t in zip(xs, ys, expected):
            if len(x) <= 6 and len(y) <= 6:
                assert t == enumerate_interleavings_min(x, y, q)
        for row_cells in (0, math.inf):  # the wavefront, then rows
            with mock.patch.object(optimal, "_CELL_BLOCK", band), \
                    mock.patch.object(optimal, "_ROW_CELLS", row_cells):
                assert optimal._t_star_lanes(xs, ys, q) == expected

    @settings(max_examples=200, deadline=None)
    @given(solver_instances(), st.integers(1, 64))
    def test_band_size_changes_no_table_and_no_schedule(self, instance, band):
        q, x, y = instance
        reference = dp_solve(x, y, q), optimal_schedule(x, y, q)
        with mock.patch.object(optimal, "_CELL_BLOCK", band):
            assert (dp_solve(x, y, q), optimal_schedule(x, y, q)) == reference


def _takes(monkeypatch):
    """A list that counts np.take calls, the cross-term tables' only reader in the solver."""
    calls = []
    take = np.take

    def counted(*args, **kwargs):
        calls.append(1)
        return take(*args, **kwargs)

    monkeypatch.setattr(optimal.np, "take", counted)
    return calls


class TestTables:
    """E' and F' read from per-lane symbol tables, where they fit a block and a block is filled."""

    @settings(max_examples=100, deadline=None)
    @given(lane_instances(st.integers(2, 4), lanes=4, length=24))
    def test_tables_equal_comparisons_and_the_table_root(self, instance):
        q, xs, ys, _ = instance
        assume(len(xs[0]) >= 3 * q)
        expected = [dp_solve(x, y, q).value(0, 0, 0) for x, y in zip(xs, ys)]
        cells = len(xs) * (len(ys[0]) + 1)
        # 3 q rows a block: tables over several blocks; then one block of comparisons
        for block in (3 * q * cells, 1 << 40):
            with mock.patch.object(optimal, "_CELL_BLOCK", block):
                assert optimal._row_sweep(xs, ys, q) == expected

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_tie_bits_equal_under_tables_and_comparisons(self, monkeypatch, q):
        x, y = _seeded_pair(23 + q, q, 40, 33)
        reference = reconstruct(x, y, dp_solve(x, y, q))
        takes = _takes(monkeypatch)
        for block in (3 * q * 34, 1 << 40):
            with mock.patch.object(optimal, "_CELL_BLOCK", block):
                assert optimal_schedule(x, y, q) == reference
        assert takes  # the first block setting read the tables

    def test_block_past_the_table_budget_compares_symbols(self, monkeypatch):
        """Tables for q = 10**6 would outgrow a 12-cell block the sweep fills: it compares instead."""
        q = 10**6
        takes = _takes(monkeypatch)
        xs = [(q - 1, 0, 5, 5, q - 2, 1) * 2, (3, 3, 2, 1, 0, q - 1) * 2]
        ys = [(0, q - 1, 2, 2, 7), (q - 1, q - 1, 0, 1, 2)]
        with mock.patch.object(optimal, "_CELL_BLOCK", 2 * 6):  # a block is filled
            got = optimal._row_sweep(xs, ys, q)
        assert got == [enumerate_interleavings_min(x, y, q) for x, y in zip(xs, ys)]
        assert takes == []

    def test_one_block_compares_symbols(self, monkeypatch):
        """A sweep of fewer cells than a block builds no tables: they would not pay."""
        takes = _takes(monkeypatch)
        x, y = _seeded_pair(3, 4, 100, 100)
        assert 101 * 100 < optimal._CELL_BLOCK
        assert optimal._row_sweep([x], [y], 4) == [dp_solve(x, y, 4).value(0, 0, 0)]
        assert takes == []
        x, y = _seeded_pair(3, 4, 400, 100)
        assert optimal._row_sweep([x], [y], 4) == [dp_solve(x, y, 4).value(0, 0, 0)]
        assert takes


@st.composite
def split_instances(draw, alphabets=st.integers(2, 7)):
    """lane_instances with len_x >= 1, and a row block size."""
    q, xs, ys, _ = draw(lane_instances(alphabets, lanes=8, length=16))
    assume(xs[0])
    return q, xs, ys, draw(st.integers(1, 64))


class TestSplitSweep:
    """Both halves of x as lanes of one sweep: the backward half on complemented, reversed strands."""

    @settings(max_examples=150, deadline=None)
    @given(split_instances())
    @example((2, [(1,)], [()], 1))  # one symbol, no y
    @example((3, [(2, 0)], [(1,)], 64))  # even len_x: the backward half leads with a pad row
    @example((4, [(3, 1, 0)] * 2, [(0, 3)] * 2, 5))  # odd len_x, unequal lengths
    @example((5, [(4,) * 7, (0,) * 7], [(4, 3, 2, 1, 0, 4)] * 2, 2))  # every symbol wraps
    @example((2, [(0, 1) * 8] * 8, [(1, 0) * 8] * 8, 64))  # eight lanes
    def test_equals_the_table_root_the_oracle_and_the_unsplit_sweep(self, instance):
        q, xs, ys, band = instance
        expected = [dp_solve(x, y, q).value(0, 0, 0) for x, y in zip(xs, ys)]
        for x, y, t in zip(xs, ys, expected):
            if len(x) + len(y) <= 12:
                assert t == enumerate_interleavings_min(x, y, q)
        assert optimal._row_sweep(xs, ys, q) == expected
        cells = 2 * len(xs) * (len(ys[0]) + 1)
        # small blocks; tables of 3 q rows a block; one block of comparisons
        for block in (band, 3 * q * cells, 1 << 40):
            with mock.patch.object(optimal, "_CELL_BLOCK", block):
                assert optimal._split_sweep(xs, ys, q) == expected

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("lanes, len_x, len_y", [(1, 200, 200), (3, 131, 90), (8, 64, 1)])
    def test_long_lanes_read_the_tables(self, monkeypatch, q, lanes, len_x, len_y):
        """The split blocks of 101 and 66 rows fill a rows block; the eight short lanes do not."""
        pairs = [_seeded_pair(100 * q + b, q, len_x, len_y) for b in range(lanes)]
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        expected = optimal._row_sweep(xs, ys, q)
        assert expected[0] == t_star(xs[0], ys[0], q) == dp_solve(xs[0], ys[0], q).value(0, 0, 0)
        takes = _takes(monkeypatch)
        assert optimal._split_sweep(xs, ys, q) == expected
        assert bool(takes) == (len_y > 1)

    def test_overflowing_tables_split_on_comparisons(self, monkeypatch):
        q = 10**6  # tables of 3 q rows pass any block budget
        takes = _takes(monkeypatch)
        xs = [(q - 1, 0, 5, 5, q - 2, 1), (3, 3, 2, 1, 0, q - 1)]
        ys = [(0, q - 1, 2, 2, 7), (q - 1, q - 1, 0, 1, 2)]
        expected = [enumerate_interleavings_min(x, y, q) for x, y in zip(xs, ys)]
        for block in (1, 1 << 40):
            with mock.patch.object(optimal, "_CELL_BLOCK", block):
                assert optimal._split_sweep(xs, ys, q) == expected
        assert takes == []

    @pytest.mark.parametrize("len_x, kernels", [
        (3, ["_row_sweep"]), (4, ["_split_sweep", "_row_sweep"]), (5, ["_split_sweep", "_row_sweep"]),
    ])
    def test_lanes_split_from_the_split_threshold(self, monkeypatch, len_x, kernels):
        monkeypatch.setattr(optimal, "_SPLIT_ROWS", 4)
        xs, ys = [(1, 0, 1, 1, 0)[:len_x], (0, 0, 1, 1, 1)[:len_x]], [(1, 1, 0), (0, 1, 0)]
        expected = [dp_solve(x, y, 2).value(0, 0, 0) for x, y in zip(xs, ys)]
        assert _kernels_called(monkeypatch, xs, ys, 2) == (expected, kernels)

    def test_split_threshold_reaches_t_star(self, monkeypatch):
        x, y = _seeded_pair(5, 3, optimal._SPLIT_ROWS, 9)
        got, calls = _kernels_called(monkeypatch, [x], [y], 3)
        assert (got, calls) == ([dp_solve(x, y, 3).value(0, 0, 0)], ["_split_sweep", "_row_sweep"])
        got, calls = _kernels_called(monkeypatch, [x[1:]], [y], 3)
        assert (got, calls) == ([dp_solve(x[1:], y, 3).value(0, 0, 0)], ["_row_sweep"])


class TestSolverRange:
    """No value exceeds q * (len_x + len_y), so int64 holds it; larger alphabets are refused first.

    Below q * (len_x + len_y + 1) = 2**30 the kernels' values are int32.
    """

    def test_large_alphabet(self):
        assert t_star((0,), (1,), 10**8) == 2

    def test_largest_alphabet_below_the_range(self):
        q = (optimal._UNREACHABLE - 1) // 4  # q * (2 + 1 + 1) just below it
        assert t_star((1, 0), (0,), q) == q + 1
        assert t_star((q - 1, q - 2), (q - 1,), q) == 2 * q  # a tie at slot q costs a round
        lanes = optimal._t_star_lanes([(1, 0), (q - 1, q - 2)], [(0,), (q - 1,)], q)
        assert lanes == [q + 1, 2 * q]

    @pytest.mark.parametrize("len_x, len_y, q, value", [
        (3, 3, (2**30 - 1) // 7, np.int32),  # q * 7 = 2**30 - 1
        (4, 3, 2**30 // 8, np.int64),  # q * 8 = 2**30
    ])
    def test_value_type_boundary(self, len_x, len_y, q, value):
        assert optimal._value_type(q, len_x, len_y)[0] is value
        # each pair opens on a tie at slot q that costs a round; in the first
        # every symbol wraps, so its shifted values come within q of the bound
        xs = [tuple(q - 1 - k for k in range(len_x)), (q - 1, 0, q - 2, 1)[:len_x]]
        ys = [tuple(q - 1 - k for k in range(len_y)), (q - 1, q - 1, 3)]
        expected = [enumerate_interleavings_min(x, y, q) for x, y in zip(xs, ys)]
        assert [t_star(x, y, q) for x, y in zip(xs, ys)] == expected
        # optimal_schedule refuses these optima past MAX_SCHEDULE_SLOTS
        assert [optimal._row_sweep([x], [y], q, [])[0] for x, y in zip(xs, ys)] == expected
        assert optimal._t_star_lanes(xs, ys, q) == expected

    def test_lane_offsets_widen_the_value_type(self):
        """Lane b sits b * q * (len_x + len_y + 2) below lane 0, so more lanes need a wider type."""
        q = (2**30 - 1) // 15  # two lanes of 3 + 3 symbols span q * (2 * 8 - 1) = 15 q
        assert optimal._value_type(q, 3, 3, 2)[0] is np.int32
        assert optimal._value_type(q + 1, 3, 3, 2)[0] is np.int64
        assert optimal._value_type(q + 1, 3, 3)[0] is np.int32
        # five lanes at q = 10**8 reach 4 * 8 q = 3.2e9 below lane 0, past int32
        q = 10**8
        assert optimal._value_type(q, 3, 3)[0] is np.int32
        assert optimal._value_type(q, 3, 3, 5)[0] is np.int64
        xs = [(q - 1, q - 2, q - 3), (q - 1, 0, q - 2), (1, 0, 0), (0, 0, 0), (5, 4, 3)]
        ys = [(q - 1, q - 2, q - 3), (q - 1, q - 1, 3), (0, 1, 1), (q - 1, 0, 0), (5, 4, 3)]
        expected = [enumerate_interleavings_min(x, y, q) for x, y in zip(xs, ys)]
        assert optimal._row_sweep(xs, ys, q) == expected
        assert optimal._t_star_lanes(xs, ys, q) == expected

    def test_lanes_past_the_int64_offsets_run_the_wavefront(self, monkeypatch):
        q = (optimal._UNREACHABLE - 1) // 4  # one pair of 2 + 1 symbols fits int64
        assert optimal._value_type(q, 2, 1) is not None
        assert optimal._value_type(q, 2, 1, 2) is None
        got, calls = _kernels_called(monkeypatch, [(1, 0), (q - 1, q - 2)], [(0,), (q - 1,)], q)
        assert (got, calls) == ([q + 1, 2 * q], ["_wavefront"])

    @pytest.mark.parametrize("q, value", [
        ((2**30 - 1) // 13, np.int32),  # 13 q = 2**30 - 1
        ((2**30 - 1) // 13 + 1, np.int64),
    ])
    def test_split_value_type_boundary(self, q, value):
        """A 3 + 3 pair spans 7 q; its split block, two lanes of 2 + 3 symbols, spans 13 q.

        So past 2**30 / 13 the split block falls back to int64 while the pair alone keeps int32.
        """
        assert optimal._value_type(q, 3, 3)[0] is np.int32
        assert optimal._value_type(q, 2, 3, 2)[0] is value
        # every symbol wraps in the first pair, so its values come within q of the bound
        xs = [(q - 1, q - 2, q - 3), (q - 1, 0, q - 2), (1, 0, 0), (0, q - 1, 0)]
        ys = [(q - 1, q - 2, q - 3), (q - 1, q - 1, 3), (0, 1, 1), (q - 1, 0, q - 1)]
        expected = [enumerate_interleavings_min(x, y, q) for x, y in zip(xs, ys)]
        assert [optimal._split_sweep([x], [y], q)[0] for x, y in zip(xs, ys)] == expected

    @pytest.mark.parametrize("lanes", [1, 2, 8, 16])
    @pytest.mark.parametrize("len_x, len_y", [(1, 0), (2, 3), (33, 1), (101, 200)])
    def test_identity_rows_cannot_overflow_int32(self, lanes, len_x, len_y):
        """An identity row adds the sentinel to V', which an int32 block keeps inside its span."""
        q = (2**30 - 1) // (lanes * (len_x + len_y + 2) - 1)  # the widest int32 alphabet
        value, sentinel = optimal._value_type(q, len_x, len_y, lanes)
        assert value is np.int32
        # lane 0's values, end values included, reach q (len_x + len_y + 1); the last
        # lane's lie (lanes - 1) q (len_x + len_y + 2) + q - 1 below 0
        span = q * (lanes * (len_x + len_y + 2) - 1)
        highest = q * (len_x + len_y + 1)
        lowest = -(lanes - 1) * q * (len_x + len_y + 2) - (q - 1)
        assert highest <= span and -span <= lowest
        assert highest + sentinel < 2**31
        assert lowest - q >= -2**31  # plus a cross term

    def test_split_block_past_the_int64_range_runs_unsplit(self, monkeypatch):
        q = (optimal._UNREACHABLE - 1) // 4  # the pair of 2 + 1 symbols spans 4 q
        monkeypatch.setattr(optimal, "_SPLIT_ROWS", 1)
        assert optimal._value_type(q, 2, 1) is not None
        assert optimal._value_type(q, 2, 1, 2) is None  # its split block spans 9 q
        assert _kernels_called(monkeypatch, [(1, 0)], [(0,)], q) == ([q + 1], ["_row_sweep"])
        q = (optimal._UNREACHABLE - 1) // 9  # now the split block fits int64
        assert optimal._split_sweep([(1, 0)], [(0,)], q) == [q + 1]
        assert optimal._split_sweep([(q - 1, q - 2)], [(q - 1,)], q) == [2 * q]

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
            lanes = optimal._row_sweep([x, y, x], [y, x, x], 2)  # one rows block of three lanes
            return t_star(x, y, 2), optimal_schedule(x, y, 2), dp_solve(x, y, 2).values, lanes

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
        """Each side of q (len_x + len_y + 1) = 2**60: below it a type holds the values and
        _check_range passes; from it on neither does, and _check_range refuses."""
        q = (2**60 - 1) // (len_x + len_y + 1)  # the widest alphabet below the bound
        assert optimal._value_type(q, len_x, len_y) is not None
        optimal._check_range(q, len_x, len_y)
        assert optimal._value_type(q + 1, len_x, len_y) is None
        with pytest.raises(UnsupportedAlphabetError, match="2\\*\\*60"):
            optimal._check_range(q + 1, len_x, len_y)

    @pytest.mark.parametrize("q, symbols", [(128, np.int8), (129, np.int64)])
    def test_symbol_type_boundary(self, q, symbols):
        """Symbols and the q - 1 before a strand are int8 up to q = 128; both kernels agree."""
        assert optimal._symbol_type(q) is symbols
        xs = [(q - 1, 0, q - 1, q - 2), (q - 2, q - 1, 1, q - 1)]
        ys = [(q - 1, q - 1, 0, 1), (0, q - 1, q - 2, q - 1)]
        expected = [enumerate_interleavings_min(x, y, q) for x, y in zip(xs, ys)]
        assert optimal._row_sweep(xs, ys, q) == expected
        assert optimal._wavefront(xs, ys, q).tolist() == expected


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
