"""Monte Carlo harness: estimators, analytic targets, reproducibility."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rowsynth import (
    ConfigError,
    ExperimentConfig,
    completion_time,
    get_policy,
    analytic_bounds,
    analytic_slope,
    conjectured_optimal_slope,
    estimate_max_lower_bound,
    estimate_optimal_time,
    estimate_policy_time,
    estimate_solo_time,
    max_bound_correction,
    no_lookahead_floor_check,
    random_strand,
    t_star,
    trial_rng,
)
from rowsynth import experiments
from rowsynth.cli import expand_configs
from rowsynth.experiments import (
    EXPERIMENT_COLUMNS,
    estimate_policy_times,
    experiment_rows,
    format_cell,
    pool_size,
    rows_to_csv,
    run_experiment_row,
)
from conftest import BlockDraws, random_pair


class TestRandomStrand:
    def test_deterministic_per_substream(self):
        a = random_strand(4, 50, trial_rng(123, 7))
        b = random_strand(4, 50, trial_rng(123, 7))
        c = random_strand(4, 50, trial_rng(123, 8))
        assert a == b
        assert a != c

    def test_empty(self):
        assert random_strand(3, 0, trial_rng(1, 0)) == ()

    def test_largest_int64_alphabet_draws(self):
        strand = random_strand(2**63, 3, trial_rng(1, 0))
        assert len(strand) == 3 and all(0 <= s < 2**63 for s in strand)

    @pytest.mark.parametrize("q, length, what", [(2**63 + 1, 3, "q must be <= 2\\*\\*63"),
                                                 (2**64, 0, "q must be <= 2\\*\\*63"),
                                                 (2, -1, "strand length must be >= 0, got -1"),
                                                 (2, 4 * 10**6 + 1, "draw budget of 4000000$")])
    def test_refuses_what_the_int64_draw_cannot_make(self, q, length, what):
        with pytest.raises(ConfigError, match=what):
            random_strand(q, length, trial_rng(1, 0))

    def test_histogram_is_uniform_within_four_sigma(self):
        n = 1_000_000
        q = 4
        strand = random_strand(q, n, trial_rng(2024, 0))
        counts = np.bincount(strand, minlength=q)
        expect = n / q
        sigma = math.sqrt(n * (1 / q) * (1 - 1 / q))
        assert np.all(np.abs(counts - expect) <= 4 * sigma)


class TestConfigValidation:
    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(2, 10, 5, 1, "bogus").validated()

    def test_lookahead_policy_requires_binary(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(4, 10, 5, 1, "lf1").validated()

    def test_positive_counts(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(2, 0, 5).validated()
        with pytest.raises(ConfigError):
            ExperimentConfig(2, 10, 0).validated()

    def test_alphabet_past_the_int64_draw_refused_before_any_trial(self, monkeypatch):
        monkeypatch.setattr(experiments, "_map_trials", None)  # any trial would fail
        assert ExperimentConfig(2**63, 10, 5).validated().q == 2**63
        too_big = ExperimentConfig(2**63 + 1, 10, 5)
        for estimate in (estimate_policy_time, estimate_optimal_time):
            with pytest.raises(ConfigError, match=rf"q must be <= 2\*\*63, got {2**63 + 1}$"):
                estimate(too_big, workers=2)
        for estimate in (estimate_solo_time, estimate_max_lower_bound):
            with pytest.raises(ConfigError, match=rf"q must be <= 2\*\*63, got {2**64}$"):
                estimate(2**64, 3, 2)

    def test_sweep_past_the_sweep_budget_refused_before_any_trial(self, monkeypatch):
        monkeypatch.setattr(experiments, "_map_trials", None)  # any trial would fail
        trials = experiments.MAX_TRIALS
        sweep = [ExperimentConfig(2, 10, trials, seed) for seed in range(10)]
        with pytest.raises(TypeError):  # at the budget: the first pass is reached
            estimate_policy_times(sweep + sweep[:1])  # a config listed twice keeps one column
        budget = experiments.MAX_SWEEP_RESULTS
        with pytest.raises(ConfigError, match=rf"^a sweep of {budget + trials} trial results "
                                              rf"is over the sweep budget of {budget}$"):
            estimate_policy_times(sweep + [ExperimentConfig(2, 10, trials, 0, "x-first")])

    def test_strand_past_the_draw_budget_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(experiments, "trial_rng", None)  # any draw would fail
        too_long = ExperimentConfig(2, experiments.MAX_DRAW_LENGTH + 1, 1)
        budget = rf"^strand length {too_long.length} is over the draw budget of 4000000$"
        for estimate in (estimate_policy_time, estimate_optimal_time):
            with pytest.raises(ConfigError, match=budget):
                estimate(too_long)
        for estimate in (estimate_solo_time, estimate_max_lower_bound):
            with pytest.raises(ConfigError, match="over the draw budget"):
                estimate(3, too_long.length, 1)
        with pytest.raises(ConfigError, match=budget):
            random_strand(2, too_long.length, None)

    def test_negative_seed_refused_before_any_trial(self, monkeypatch):
        monkeypatch.setattr(experiments, "_map_trials", None)  # any trial would fail
        for estimate in (estimate_policy_time, estimate_optimal_time):
            with pytest.raises(ConfigError, match="got -1"):
                estimate(ExperimentConfig(2, 10, 5, -1), workers=2)
        with pytest.raises(ConfigError, match="got -1"):
            estimate_solo_time(2, 10, 5, seed=-1)


class TestEstimatePolicyTime:
    def test_reproducible(self):
        cfg = ExperimentConfig(2, 300, 24, 5, "lf")
        assert estimate_policy_time(cfg) == estimate_policy_time(cfg)

    def test_worker_count_does_not_change_results(self):
        cfg = ExperimentConfig(3, 200, 18, 5, "random")
        assert estimate_policy_time(cfg, workers=1) == estimate_policy_time(cfg, workers=3)

    def test_slope_lands_near_target(self):
        est = estimate_policy_time(ExperimentConfig(2, 1000, 60, 5, "lf"))
        assert 2.4 <= est.slope <= 2.6

    def test_stderr_fields(self):
        est = estimate_policy_time(ExperimentConfig(2, 100, 30, 5, "lf"))
        assert est.trials == 30
        assert est.stderr > 0
        assert est.slope == est.mean / 100
        assert est.slope_stderr == pytest.approx(est.stderr / 100)
        assert len(est.times) == 30


class TestEstimateOptimalTime:
    def test_never_exceeds_policy_time_on_shared_seeds(self):
        cfg = ExperimentConfig(2, 120, 20, 77, "lf")
        opt = estimate_optimal_time(cfg)
        pol = estimate_policy_time(cfg)
        assert all(o <= p for o, p in zip(opt.times, pol.times))

    def test_worker_equality(self, monkeypatch):
        monkeypatch.setattr(experiments, "_POOL_MIN_CELLS", 0)  # a pool at any size
        cfg = ExperimentConfig(2, 80, 10, 3)
        assert estimate_optimal_time(cfg, workers=1) == estimate_optimal_time(cfg, workers=2)

    # times of the per-trial t_star loop, recorded before trials were solved as lanes
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("config, times", [
        (ExperimentConfig(2, 200, 12, 2024),
         (450, 434, 444, 451, 454, 435, 429, 448, 436, 438, 448, 431)),
        (ExperimentConfig(4, 300, 3, 2025), (926, 931, 927)),
    ])
    def test_pinned_times(self, config, times, workers):
        assert estimate_optimal_time(config, workers=workers).times == times

    @pytest.mark.parametrize("cap, length, trials", [
        (experiments._LANE_CELLS, 200, 90),
        (experiments._LANE_CELLS, 1, 5000),
        (50, 60, 3),
    ])
    def test_lane_blocks_stay_under_the_cell_cap(self, monkeypatch, cap, length, trials):
        blocks = []
        solve = experiments._t_star_lanes

        def counted(xs, ys, q):
            blocks.append(len(xs))
            assert len(xs) == len(ys) == 1 or len(xs) * (length + 1) <= cap
            return solve(xs, ys, q)

        monkeypatch.setattr(experiments, "_LANE_CELLS", cap)
        monkeypatch.setattr(experiments, "_t_star_lanes", counted)
        config = ExperimentConfig(2, length, trials, 8)
        times = estimate_optimal_time(config).times
        assert sum(blocks) == trials
        assert max(blocks) == min(trials, max(1, cap // (length + 1)))
        assert times == tuple(t_star(*random_pair(trial_rng(8, idx), 2, length), 2)
                              for idx in range(trials))

    def test_quaternary_slope_near_three(self):
        from rowsynth import DEFAULT_SEED

        est = estimate_optimal_time(ExperimentConfig(4, 200, 60, DEFAULT_SEED))
        assert 2.9 <= est.slope <= 3.3


class TestSoloAndMaxBound:
    def test_single_symbol_mean(self):
        est = estimate_solo_time(5, 1, 4000, 11)
        assert est.mean == pytest.approx((5 + 1) / 2, abs=0.12)

    def test_solo_slope(self):
        est = estimate_solo_time(4, 1000, 80, 11)
        assert est.slope == pytest.approx(2.5, rel=0.02)

    def test_max_bound_rejects_binary(self):
        with pytest.raises(ConfigError):
            estimate_max_lower_bound(2, 100, 10, 1)

    def test_max_dominates_solo_on_shared_seeds(self):
        mx = estimate_max_lower_bound(4, 200, 40, 13)
        solo = estimate_solo_time(4, 200, 40, 13)
        assert all(m >= s for m, s in zip(mx.times, solo.times))

    @pytest.mark.parametrize("estimate,q", [(estimate_solo_time, 2),
                                            (estimate_max_lower_bound, 3)])
    @pytest.mark.parametrize("length,trials,what", [(10, 0, "trial count"),
                                                    (0, 3, "strand length"),
                                                    (-4, 3, "strand length")])
    def test_rejects_empty_samples(self, estimate, q, length, trials, what):
        with pytest.raises(ConfigError, match=what):
            estimate(q, length, trials, 1)

    def test_correction_term_value(self):
        assert max_bound_correction(4, 2000) == pytest.approx(
            math.sqrt(2000 * 15 / (12 * math.pi)))


class TestAnalyticBounds:
    def test_binary_row(self):
        row = analytic_bounds(2, 1000)
        assert row.solo_expected == 1500
        assert row.x_first_expected == pytest.approx(2700)
        assert row.lf_expected == 2500
        assert row.lf1_expected == pytest.approx(7000 / 3)
        assert row.lower_max_expected is None
        assert row.trivial_lower == 2000

    def test_quaternary_row(self):
        row = analytic_bounds(4, 1000)
        assert row.lf_expected == 3500
        assert row.x_first_expected == pytest.approx(1000 * 5 * 11 / 14)
        assert row.lf1_expected is None
        assert row.lower_max_expected == pytest.approx(2500 + max_bound_correction(4, 1000))

    @pytest.mark.parametrize("q", [2, 3])
    def test_negative_length_rejected(self, q):
        with pytest.raises(ConfigError, match="length"):
            analytic_bounds(q, -5)

    def test_zero_length_gives_zero_times(self):
        row = analytic_bounds(3, 0)
        assert row.solo_expected == row.lf_expected == row.lower_max_expected == 0

    @pytest.mark.parametrize("q", list(range(2, 65)))
    def test_laggard_never_above_x_first(self, q):
        row = analytic_bounds(q, 1000)
        assert row.lf_expected <= row.x_first_expected

    def test_analytic_slope_table(self):
        assert analytic_slope("lf", 2) == 2.5
        assert analytic_slope("x-first", 2) == pytest.approx(2.7)
        assert analytic_slope("y-first", 4) == analytic_slope("x-first", 4)
        assert analytic_slope("lf1", 2) == pytest.approx(7 / 3)
        assert analytic_slope("lf1", 3) is None
        assert analytic_slope("optimal", 2) is None


class TestFloorCheck:
    def test_rejects_lookahead_policies(self):
        with pytest.raises(ConfigError):
            no_lookahead_floor_check(2, 50, 5, ["lf", "lf1"], 1)

    def test_all_depth_zero_policies_clear_floor(self):
        checks = no_lookahead_floor_check(
            2, 600, 40, ["x-first", "y-first", "lf", "round-robin", "random"], 5)
        assert [c.policy for c in checks] == ["x-first", "y-first", "lf", "round-robin", "random"]
        assert all(c.passed for c in checks)
        assert all(c.floor == 2.5 for c in checks)
        by_name = {c.policy: c for c in checks}
        assert by_name["x-first"].slope - 2.5 == pytest.approx(0.2, abs=0.06)
        assert abs(by_name["lf"].slope - 2.5) <= by_name["lf"].epsilon


class TestConjectureTargets:
    def test_values(self):
        assert conjectured_optimal_slope(2) == 2.16
        assert conjectured_optimal_slope(4) == 3.0


class TestTabulation:
    def test_row_and_csv_shape(self):
        row = run_experiment_row(ExperimentConfig(2, 100, 10, 5, "lf"))
        assert list(row) == list(EXPERIMENT_COLUMNS)
        csv = rows_to_csv([row], EXPERIMENT_COLUMNS)
        header, line = csv.strip().split("\n")
        assert header == ",".join(EXPERIMENT_COLUMNS)
        assert line.startswith("2,100,lf,10,5,")

    def test_csv_is_reproducible_across_workers(self):
        cfg = ExperimentConfig(2, 150, 12, 9, "lf")
        a = rows_to_csv([run_experiment_row(cfg, workers=1)], EXPERIMENT_COLUMNS)
        b = rows_to_csv([run_experiment_row(cfg, workers=4)], EXPERIMENT_COLUMNS)
        assert a == b

    def test_format_cell(self):
        assert format_cell(None) == ""
        assert format_cell(2.5) == "2.5"
        assert format_cell(7) == "7"


class TestConvergenceWithLength:
    @pytest.mark.parametrize("policy,target", [("lf", 2.5), ("x-first", 2.7)])
    def test_slope_windows_tighten_with_length(self, policy, target):
        windows = {250: 0.06, 1000: 0.03, 2000: 0.02}
        for length, tol in windows.items():
            est = estimate_policy_time(ExperimentConfig(2, length, 80, 17, policy))
            assert abs(est.slope - target) <= tol, (length, est.slope)


class TestDominanceChain:
    def test_means_order_on_shared_seeds(self):
        length, trials, seed = 250, 40, 4242
        opt = estimate_optimal_time(ExperimentConfig(2, length, trials, seed))
        lf1 = estimate_policy_time(ExperimentConfig(2, length, trials, seed, "lf1"))
        lf = estimate_policy_time(ExperimentConfig(2, length, trials, seed, "lf"))
        xf = estimate_policy_time(ExperimentConfig(2, length, trials, seed, "x-first"))
        assert opt.mean <= lf1.mean + lf1.stderr
        assert lf1.mean <= lf.mean + math.hypot(lf1.stderr, lf.stderr)
        assert lf.mean <= xf.mean + math.hypot(lf.stderr, xf.stderr)


# times of ExperimentConfig(q, 40, 8, 2026, policy), pinned from the slot-by-slot simulator
PINNED_TIMES = {
    (2, "x-first"): (103, 113, 115, 104, 100, 108, 103, 116),
    (2, "y-first"): (102, 111, 108, 117, 106, 102, 109, 106),
    (2, "lf"): (89, 105, 95, 105, 96, 96, 105, 102),
    (2, "lf1"): (87, 93, 87, 98, 90, 94, 103, 98),
    (2, "round-robin"): (97, 109, 99, 102, 98, 96, 107, 106),
    (2, "random"): (93, 97, 94, 103, 104, 94, 109, 100),
    (4, "x-first"): (150, 158, 158, 136, 155, 167, 153, 159),
    (4, "y-first"): (144, 157, 148, 158, 155, 176, 165, 151),
    (4, "lf"): (120, 134, 130, 132, 135, 152, 141, 135),
    (4, "round-robin"): (126, 134, 130, 144, 139, 148, 153, 151),
    (4, "random"): (132, 137, 132, 134, 151, 151, 141, 155),
}


@pytest.mark.parametrize("q,policy", sorted(PINNED_TIMES))
def test_pinned_times(q, policy):
    est = estimate_policy_time(ExperimentConfig(q, 40, 8, 2026, policy))
    assert est.times == PINNED_TIMES[q, policy]


# times of estimate_solo_time(q, 40, 8, 2026) and estimate_max_lower_bound(q, 40, 8, 2026),
# pinned from the hand-written loops in each estimator
PINNED_SOLO_TIMES = {
    2: (58, 63, 60, 61, 64, 60, 65, 64),
    4: (96, 105, 100, 106, 103, 112, 109, 107),
}
PINNED_MAX_TIMES = {
    3: (82, 85, 86, 90, 84, 90, 91, 90),
    5: (127, 132, 125, 125, 129, 133, 126, 144),
}


@pytest.mark.parametrize("q", sorted(PINNED_SOLO_TIMES))
def test_pinned_solo_times(q):
    assert estimate_solo_time(q, 40, 8, 2026).times == PINNED_SOLO_TIMES[q]


@pytest.mark.parametrize("q", sorted(PINNED_MAX_TIMES))
def test_pinned_max_times(q):
    assert estimate_max_lower_bound(q, 40, 8, 2026).times == PINNED_MAX_TIMES[q]


class TestSingleTrial:
    def test_stderr_is_undefined(self):
        est = estimate_policy_time(ExperimentConfig(2, 50, 1, 5, "lf"))
        assert est.stderr is None and est.slope_stderr is None
        assert est.mean == est.times[0]

    def test_row_leaves_error_cells_empty(self):
        row = run_experiment_row(ExperimentConfig(2, 50, 1, 5, "lf"))
        assert row["stderr"] is None and row["deltaSigma"] is None

    def test_floor_check_refuses(self):
        with pytest.raises(ConfigError):
            no_lookahead_floor_check(2, 50, 1, ["lf"])


class TestFloorCheckNames:
    @pytest.mark.parametrize("policies", [["nope"], ["lf", "nope"], ["lf", "lf1", "nope"]])
    def test_every_name_is_checked_before_any_trial(self, monkeypatch, policies):
        monkeypatch.setattr(experiments, "_map_trials", None)  # any trial would fail
        with pytest.raises(ConfigError):
            no_lookahead_floor_check(2, 50, 4, policies)

    def test_unknown_name_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown policy 'nope'"):
            no_lookahead_floor_check(2, 50, 4, ["nope"])

    def test_one_pass_and_a_repeated_policy_reuses_its_result(self, monkeypatch):
        calls = []
        map_trials = experiments._map_trials
        monkeypatch.setattr(experiments, "_map_trials",
                            lambda *args: calls.append(args[2]) or map_trials(*args))
        checks = no_lookahead_floor_check(2, 60, 6, ["lf", get_policy("x-first"), "lf"], 5)
        assert calls == [(2, 60, ("lf", "x-first"))]
        assert [c.policy for c in checks] == ["lf", "x-first", "lf"]
        assert checks[0] == checks[2]
        assert checks[1].slope == estimate_policy_time(
            ExperimentConfig(2, 60, 6, 5, "x-first")).slope


def reference_policy_times(config):
    """Per-trial completion_time on freshly drawn strands, one policy at a time.

    A trial draws x then y from trial_rng(seed, idx), and a coin-drawing
    policy reads its coins from the same generator after them.
    """
    policy, times = get_policy(config.policy), []
    for idx in range(config.trials):
        gen = trial_rng(config.seed, idx)
        x = random_strand(config.q, config.length, gen)
        y = random_strand(config.q, config.length, gen)
        times.append(completion_time(x, y, policy, config.q, BlockDraws(gen, 2)))
    return tuple(times)


ALL_POLICIES = ["x-first", "y-first", "lf", "lf1", "round-robin", "random"]
DEPTH0 = ["x-first", "y-first", "lf", "round-robin", "random"]


class TestGroupPass:
    @pytest.mark.parametrize("q, names", [(2, ALL_POLICIES), (4, DEPTH0)])
    def test_equals_one_estimate_per_policy_trial_by_trial(self, q, names):
        configs = [ExperimentConfig(q, 90, 7, 31, name) for name in names]
        group = estimate_policy_times(configs)
        for config, est in zip(configs, group):
            assert est == estimate_policy_time(config)
            assert est.times == reference_policy_times(config)

    def test_draws_each_trial_once_per_group(self, monkeypatch):
        drawn = []
        rng = experiments.trial_rng
        monkeypatch.setattr(experiments, "trial_rng",
                            lambda seed, idx: drawn.append((seed, idx)) or rng(seed, idx))
        estimate_policy_times([ExperimentConfig(2, 50, 4, 9, name) for name in ALL_POLICIES]
                              + [ExperimentConfig(2, 50, 4, 10, "lf")])
        assert drawn == [(9, idx) for idx in range(4)] + [(10, idx) for idx in range(4)]

    def test_random_listed_twice(self):
        configs = [ExperimentConfig(3, 80, 6, 12, name)
                   for name in ("random", "lf", "random", "x-first")]
        group = estimate_policy_times(configs)
        assert group[0] == group[2] == estimate_policy_time(configs[0])
        assert group[0].times == reference_policy_times(configs[0])
        assert [est.times for est in group[1::2]] == [reference_policy_times(c)
                                                     for c in configs[1::2]]

    def test_sweep_with_listed_trials_and_seeds(self, monkeypatch):
        configs = expand_configs({"q": 2, "L": 70, "policy": ["lf", "random", "x-first"],
                                  "trials": [3, 5], "seed": [1, 2]})
        # the product puts policy before trials and seed: a group's rows are 4 apart
        assert [(c.policy, c.trials, c.seed) for c in configs[:5]] == [
            ("lf", 3, 1), ("lf", 3, 2), ("lf", 5, 1), ("lf", 5, 2), ("random", 3, 1)]
        calls = []
        map_trials = experiments._map_trials
        monkeypatch.setattr(experiments, "_map_trials",
                            lambda *args: calls.append(args[1]) or map_trials(*args))
        rows = experiment_rows(configs)
        assert calls == [1, 2, 1, 2]  # one pass per (trials, seed) group
        assert rows == [run_experiment_row(c) for c in configs]
        for config, row in zip(configs, rows):
            assert row["meanT"] == np.mean(reference_policy_times(config))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workers(self, monkeypatch, workers):
        monkeypatch.setattr(experiments, "_POOL_MIN_WALKS", 0)  # a pool at any size
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)  # three blocks at 3 workers
        configs = [ExperimentConfig(2, 60, 5, 8, name) for name in ALL_POLICIES]
        group = estimate_policy_times(configs, workers)
        assert [est.times for est in group] == [reference_policy_times(c) for c in configs]


class TestOneTrialPass:
    """Every measure is a column of one pass that draws each trial once."""

    NAMES = ("optimal", "solo", "max-of-solos", "lf", "random")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_column_equals_its_single_measure_estimate(self, monkeypatch, workers):
        import concurrent.futures

        q, length, trials, seed = 3, 40, 7, 21
        drawn = []
        rng = experiments.trial_rng
        monkeypatch.setattr(experiments, "trial_rng",
                            lambda seed, idx: drawn.append((seed, idx)) or rng(seed, idx))
        # threads stand in for the pool's processes, so the draws are seen here
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            concurrent.futures.ThreadPoolExecutor)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        rows = experiments._map_trials(experiments._trial_block, seed,
                                       (q, length, self.NAMES), trials, workers)
        assert sorted(drawn) == [(seed, idx) for idx in range(trials)]
        monkeypatch.setattr(experiments, "trial_rng", rng)
        optimal, solo, max_of_solos, lf, random = zip(*rows)
        assert optimal == estimate_optimal_time(ExperimentConfig(q, length, trials, seed)).times
        assert solo == estimate_solo_time(q, length, trials, seed).times
        assert max_of_solos == estimate_max_lower_bound(q, length, trials, seed).times
        for name, column in (("lf", lf), ("random", random)):
            config = ExperimentConfig(q, length, trials, seed, name)
            assert column == estimate_policy_time(config).times == reference_policy_times(config)

    def test_columns_hold_through_the_process_pool(self):
        args = (4, 30, self.NAMES)
        assert (experiments._map_trials(experiments._trial_block, 5, args, 6, 2)
                == experiments._trial_block(5, args, 0, 6))


class TestBoundWalks:
    """A policy is bound once per walk: no state carries from one trial to the next."""

    @pytest.mark.parametrize("q, names", [(2, ALL_POLICIES), (4, DEPTH0)])
    def test_trials_in_any_order(self, q, names):
        args = (q, 40, tuple(names))
        whole = experiments._trial_block(3, args, 0, 12)
        order = [5, 0, 11, 3, 9, 1, 7, 10, 2, 8, 4, 6]
        alone = {idx: experiments._trial_block(3, args, idx, idx + 1)[0] for idx in order}
        assert [alone[idx] for idx in range(12)] == whole

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_one_policy_walks_many_pairs_in_any_order(self, name):
        policy, q = get_policy(name), 2
        pairs = [(random_strand(q, 30, trial_rng(4, k)), random_strand(q, 25, trial_rng(5, k)))
                 for k in range(20)]
        forward = [completion_time(x, y, policy, q, trial_rng(6, k))
                   for k, (x, y) in enumerate(pairs)]
        backward = [completion_time(x, y, policy, q, trial_rng(6, k))
                    for k, (x, y) in reversed(list(enumerate(pairs)))]
        assert backward[::-1] == forward


class TestPoolThreshold:
    def test_small_groups_run_serially_at_any_worker_count(self, monkeypatch):
        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # no pool may start
        cfg = ExperimentConfig(2, 100, 10, 3, "lf")
        assert cfg.trials * cfg.length < experiments._POOL_MIN_WALKS
        assert estimate_policy_time(cfg, workers=2) == estimate_policy_time(cfg)
        with pytest.raises(ConfigError, match="worker count"):
            estimate_policy_time(cfg, workers=0)

    def test_small_solves_run_serially_at_any_worker_count(self, monkeypatch):
        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # no pool may start
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        cfg = ExperimentConfig(2, 20, 4, 3)
        assert cfg.trials * (cfg.length + 1) ** 2 < experiments._POOL_MIN_CELLS
        assert estimate_optimal_time(cfg, workers=2) == estimate_optimal_time(cfg)
        with pytest.raises(ConfigError, match="worker count"):
            estimate_optimal_time(cfg, workers=0)

    @pytest.mark.parametrize("cells, pooled", [(99, False), (100, True)])
    def test_solver_pool_starts_at_the_cell_threshold(self, monkeypatch, cells, pooled):
        import concurrent.futures

        started = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(experiments, "_POOL_MIN_CELLS", 100)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        block = lambda seed, args, lo, hi: list(range(lo, hi))  # noqa: E731
        assert experiments._map_trials(block, 0, (), 5, 2, cells=cells) == [0, 1, 2, 3, 4]
        assert started == ([2] if pooled else [])

    @pytest.mark.parametrize("walks, pooled", [(99, False), (100, True)])
    def test_pool_starts_at_the_threshold(self, monkeypatch, walks, pooled):
        import concurrent.futures

        started = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(experiments, "_POOL_MIN_WALKS", 100)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        block = lambda seed, args, lo, hi: list(range(lo, hi))  # noqa: E731
        assert experiments._map_trials(block, 0, (), 5, 2, walks) == [0, 1, 2, 3, 4]
        assert started == ([2] if pooled else [])

    def test_c12_config_is_byte_identical_through_the_pool(self, monkeypatch):
        monkeypatch.setattr(experiments, "_POOL_MIN_WALKS", 0)
        cfg = ExperimentConfig(2, 400, 24, 0xDA7A, "random")
        outputs = {rows_to_csv([run_experiment_row(cfg, workers=w)], EXPERIMENT_COLUMNS)
                   for w in (1, 2, 3)}
        assert len(outputs) == 1


class TestPoolSize:
    @pytest.mark.parametrize("workers,trials,cpus,expected", [
        (1, 100, 8, 1), (3, 100, 8, 3), (50, 100, 8, 8), (50, 5, 8, 5),
        (4, 100, None, 1), (10**9, 10**9, 2, 2),
    ])
    def test_clamps_to_cpus_and_trials(self, monkeypatch, workers, trials, cpus, expected):
        monkeypatch.setattr("rowsynth.experiments.os.cpu_count", lambda: cpus)
        assert pool_size(workers, trials) == expected

    @pytest.mark.parametrize("workers", [0, -5])
    def test_rejects_fewer_than_one(self, workers):
        with pytest.raises(ConfigError, match="worker count"):
            pool_size(workers, 10)
