"""Monte Carlo harness for expected completion times.

Estimates the mean completion time of random strand pairs under each tie
policy, the exact optimum, the solo baseline and the max-of-solos lower
bound, and tabulates the analytic slope targets they converge to. Every
trial draws its strands from a substream keyed by (master seed, trial
index), so estimates are bit-reproducible regardless of worker count, and
runs that share a seed see identical strands trial by trial.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError
from .model import Strand, completion_time, solo_time, validate_alphabet
from .optimal import t_star
from .policies import TiePolicy, get_policy, policy_names
from .rng import BlockDraws, DEFAULT_SEED, trial_rng


@dataclass(frozen=True)
class ExperimentConfig:
    q: int
    length: int
    trials: int
    seed: int = DEFAULT_SEED
    policy: str = "lf"

    def validated(self) -> "ExperimentConfig":
        validate_alphabet(self.q)
        if self.length < 1:
            raise ConfigError(f"strand length must be >= 1, got {self.length}")
        if self.trials < 1:
            raise ConfigError(f"trial count must be >= 1, got {self.trials}")
        if self.policy not in policy_names():
            raise ConfigError(
                f"unknown policy {self.policy!r}; known: {', '.join(policy_names())}"
            )
        if self.policy == "lf1" and self.q != 2:
            raise ConfigError("policy lf1 is defined only for q=2")
        return self


@dataclass(frozen=True)
class EstimateResult:
    """Mean completion time over trials, with its standard error and slope.

    ``stderr`` is None for a single trial, whose error is undefined.
    """

    mean: float
    stderr: float | None
    trials: int
    slope: float
    times: tuple[int, ...] = ()

    @property
    def slope_stderr(self) -> float | None:
        if self.stderr is None:
            return None
        return self.stderr / (self.mean / self.slope) if self.mean else 0.0


def random_strand(q: int, length: int, rng: np.random.Generator) -> Strand:
    """A strand of i.i.d. uniform symbols."""
    validate_alphabet(q)
    return tuple(rng.integers(0, q, size=length).tolist())


def _summarize(times: list[int], length: int) -> EstimateResult:
    arr = np.asarray(times, dtype=float)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else None
    return EstimateResult(mean, stderr, len(arr), mean / length, tuple(times))


def _random_pair(gen: np.random.Generator, q: int, length: int) -> tuple[Strand, Strand]:
    return random_strand(q, length, gen), random_strand(q, length, gen)


def _policy_trial(gen: np.random.Generator, q: int, length: int, policy_name: str) -> int:
    policy = get_policy(policy_name)
    x, y = _random_pair(gen, q, length)
    coins = BlockDraws(gen, 2) if policy.uses_rng else None
    return completion_time(x, y, policy, q, coins)


def _optimal_trial(gen: np.random.Generator, q: int, length: int) -> int:
    return t_star(*_random_pair(gen, q, length), q)


def _solo_trial(gen: np.random.Generator, q: int, length: int) -> int:
    return solo_time(random_strand(q, length, gen), q, 0)


def _max_of_solos_trial(gen: np.random.Generator, q: int, length: int) -> int:
    x, y = _random_pair(gen, q, length)
    return max(solo_time(x, q, 0), solo_time(y, q, 0))


def pool_size(workers: int, trials: int) -> int:
    """Worker processes to start: at most one per CPU and one per trial.

    Raises ConfigError for fewer than one worker, before any work starts.
    """
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1, trials)


def _trial_block(measure, seed: int, args: tuple, lo: int, hi: int) -> list[int]:
    return [measure(trial_rng(seed, idx), *args) for idx in range(lo, hi)]


def _map_trials(measure, seed: int, args: tuple, trials: int, workers: int) -> list[int]:
    """``measure(trial_rng(seed, idx), *args)`` for each trial index, in index order.

    With more than one worker the indices are split into one contiguous
    block per process; every trial still draws from its own substream.
    """
    workers = pool_size(workers, trials)
    if workers == 1:
        return _trial_block(measure, seed, args, 0, trials)
    chunk = -(-trials // workers)
    starts = range(0, trials, chunk)
    block = partial(_trial_block, measure, seed, args)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        blocks = pool.map(block, starts, [min(lo + chunk, trials) for lo in starts])
        return [t for times in blocks for t in times]


def estimate_policy_time(config: ExperimentConfig, workers: int = 1) -> EstimateResult:
    """Mean completion time of the configured policy over random pairs."""
    config = config.validated()
    times = _map_trials(_policy_trial, config.seed, (config.q, config.length, config.policy),
                        config.trials, workers)
    return _summarize(times, config.length)


def estimate_optimal_time(config: ExperimentConfig, workers: int = 1) -> EstimateResult:
    """Mean optimal completion time (exact solver per trial) over random pairs.

    Shares the strand substreams of estimate_policy_time, so at equal seeds
    the comparison is pointwise on identical instances.
    """
    config = config.validated()
    times = _map_trials(_optimal_trial, config.seed, (config.q, config.length),
                        config.trials, workers)
    return _summarize(times, config.length)


def estimate_solo_time(q: int, length: int, trials: int,
                       seed: int = DEFAULT_SEED) -> EstimateResult:
    """Mean unconstrained single-strand synthesis time; slope targets (q+1)/2."""
    ExperimentConfig(q, length, trials, seed).validated()
    return _summarize(_map_trials(_solo_trial, seed, (q, length), trials, 1), length)


def estimate_max_lower_bound(q: int, length: int, trials: int,
                             seed: int = DEFAULT_SEED) -> EstimateResult:
    """Mean of max(solo x, solo y) over random pairs; a completion-time floor.

    Defined for q > 2; for the binary alphabet the trivial floor 2L is
    stronger than the concentration correction this estimates.
    """
    if q <= 2:
        raise ConfigError("max-of-solos bound applies to q > 2; use the trivial 2L bound for q=2")
    ExperimentConfig(q, length, trials, seed).validated()
    return _summarize(_map_trials(_max_of_solos_trial, seed, (q, length), trials, 1), length)


# --- analytic targets --------------------------------------------------------


def solo_slope(q: int) -> float:
    return (q + 1) / 2


def x_first_slope(q: int) -> float:
    return (q + 1) * (q + 7) / (2 * (q + 3))


def lf_slope(q: int) -> float:
    return (q + 3) / 2


def lf1_slope() -> float:
    return 7 / 3


def max_bound_correction(q: int, length: int) -> float:
    """Concentration term added to the solo mean by taking a max of two."""
    return math.sqrt(length * (q * q - 1) / (12 * math.pi))


def conjectured_optimal_slope(q: int) -> float:
    """Simulation-backed targets for the optimal slope: 2.16 (q=2), (q+2)/2 above."""
    return 2.16 if q == 2 else (q + 2) / 2


def analytic_slope(policy_name: str, q: int) -> float | None:
    """Asymptotic slope target for a policy, when one is known."""
    if policy_name in ("x-first", "y-first"):
        return x_first_slope(q)
    if policy_name in ("lf", "round-robin", "random"):
        return lf_slope(q)
    if policy_name == "lf1":
        return lf1_slope() if q == 2 else None
    return None


@dataclass(frozen=True)
class BoundsRow:
    """Analytic expected completion times at one (q, L)."""

    q: int
    length: int
    solo_expected: float
    x_first_expected: float
    lf_expected: float
    lf1_expected: float | None
    lower_max_expected: float | None
    trivial_lower: float


def analytic_bounds(q: int, length: int) -> BoundsRow:
    validate_alphabet(q)
    return BoundsRow(
        q=q,
        length=length,
        solo_expected=solo_slope(q) * length,
        x_first_expected=x_first_slope(q) * length,
        lf_expected=lf_slope(q) * length,
        lf1_expected=lf1_slope() * length if q == 2 else None,
        lower_max_expected=(
            solo_slope(q) * length + max_bound_correction(q, length) if q > 2 else None
        ),
        trivial_lower=2.0 * length,
    )


@dataclass(frozen=True)
class FloorCheck:
    policy: str
    slope: float
    slope_stderr: float
    floor: float
    epsilon: float
    passed: bool


def no_lookahead_floor_check(q: int, length: int, trials: int, policies,
                             seed: int = DEFAULT_SEED, workers: int = 1) -> list[FloorCheck]:
    """Check every depth-0 policy's slope against the (q+3)/2 floor.

    The floor holds asymptotically for any policy that resolves ties from
    past information alone; the tolerance covers Monte Carlo noise (four
    standard errors plus 1% of the floor). Depth-1 policies are rejected,
    and so are fewer than two trials, which leave the standard error undefined.
    """
    if trials < 2:
        raise ConfigError(f"the floor check needs at least 2 trials, got {trials}")
    floor = lf_slope(q)
    out = []
    for policy in policies:
        if isinstance(policy, TiePolicy):
            policy = policy.name
        if get_policy(policy).lookahead != 0:
            raise ConfigError(f"policy {policy!r} uses lookahead; the floor covers depth-0 only")
        est = estimate_policy_time(
            ExperimentConfig(q, length, trials, seed, policy), workers=workers
        )
        slope_stderr = est.stderr / length
        epsilon = 4 * slope_stderr + 0.01 * floor
        out.append(FloorCheck(policy, est.slope, slope_stderr, floor, epsilon,
                              est.slope >= floor - epsilon))
    return out


# --- tabulation ---------------------------------------------------------------

EXPERIMENT_COLUMNS = ("q", "L", "policy", "trials", "seed",
                      "meanT", "stderr", "slope", "analyticSlope", "deltaSigma")


def run_experiment_row(config: ExperimentConfig, workers: int = 1) -> dict:
    """One CSV-ready row of policy estimates plus the analytic target."""
    est = estimate_policy_time(config, workers=workers)
    target = analytic_slope(config.policy, config.q)
    delta_sigma = None
    if target is not None and est.stderr:
        delta_sigma = (est.mean - target * config.length) / est.stderr
    return {
        "q": config.q,
        "L": config.length,
        "policy": config.policy,
        "trials": config.trials,
        "seed": config.seed,
        "meanT": est.mean,
        "stderr": est.stderr,
        "slope": est.slope,
        "analyticSlope": target,
        "deltaSigma": delta_sigma,
    }


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows, columns) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"
