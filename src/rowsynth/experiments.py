"""Monte Carlo harness for expected completion times.

Estimates the mean completion time of random strand pairs under each tie
policy, the exact optimum, the solo baseline and the max-of-solos lower
bound, and tabulates the analytic slope targets they converge to. Every
trial draws its strands from a substream keyed by (master seed, trial
index), so estimates are bit-reproducible regardless of worker count, and
runs that share a seed see identical strands trial by trial.

One trial pass serves every estimate: each trial draws its strands once,
and every measure of the pass (policies, the optimum, the solo times)
reads them. Policy estimates that share (q, L, trials, seed) form a sweep
group, run as one pass, so its rows equal one estimate_policy_time per
policy, trial by trial, for one draw per trial and at most one pool.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError
from .model import Strand, _run, _solo_slots, validate_alphabet
from .optimal import _LANE_CELLS, _check_range, _t_star_lanes
from .policies import TiePolicy, get_policy, policy_names
from .rng import DEFAULT_SEED, block_stream, check_draw_base, trial_rng, validate_seed


@dataclass(frozen=True)
class ExperimentConfig:
    q: int
    length: int
    trials: int
    seed: int = DEFAULT_SEED
    policy: str = "lf"

    def validated(self) -> "ExperimentConfig":
        _check_drawable(self.q, self.length)
        if self.length < 1:
            raise ConfigError(f"strand length must be >= 1, got {self.length}")
        if self.trials < 1:
            raise ConfigError(f"trial count must be >= 1, got {self.trials}")
        if self.trials > MAX_TRIALS:
            raise ConfigError(f"trial count {self.trials} is over the trial budget of {MAX_TRIALS}")
        validate_seed(self.seed)
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


# Longest strand a trial draws: about 600 MB at the trial pass's 105-150
# bytes per symbol of L (int64 draws, solo-slot and next-symbol lists).
MAX_DRAW_LENGTH = 4 * 10**6

# Most trials one estimate runs. A pass of all six catalog policies peaked
# at 295 bytes a trial, the times EstimateResult keeps included (139 for one
# policy; q=2, L=100, tracemalloc), so this holds a pass near 600 MB.
MAX_TRIALS = 2 * 10**6

# Most trial results one sweep keeps, summed over its configs (trials x
# policies): a sweep keeps every config's times until it ends, and
# tracemalloc read 126 bytes a trial index kept for one lf config and 411
# for ten (q=2, L=200, 10**4 trials each), 32 to 41 bytes a result, so this
# holds 0.65 to 0.8 GB: ten configs at MAX_TRIALS.
MAX_SWEEP_RESULTS = 2 * 10**7


def _check_drawable(q: int, length: int) -> None:
    """Refuse an alphabet numpy's int64 draw cannot hold, or a length past MAX_DRAW_LENGTH."""
    validate_alphabet(q)
    check_draw_base(q, "random strands draw int64 symbols")
    if length > MAX_DRAW_LENGTH:
        raise ConfigError(f"strand length {length} is over the draw budget of {MAX_DRAW_LENGTH}")


def random_strand(q: int, length: int, rng: np.random.Generator) -> Strand:
    """A strand of i.i.d. uniform symbols."""
    _check_drawable(q, length)
    if length < 0:
        raise ConfigError(f"strand length must be >= 0, got {length}")
    return tuple(rng.integers(0, q, size=length).tolist())


def _summarize(times, length: int) -> EstimateResult:
    arr = np.asarray(times, dtype=float)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else None
    return EstimateResult(mean, stderr, len(arr), mean / length, tuple(times))


_MEASURES = ("optimal", "solo", "max-of-solos")  # beside the catalog policies


def _trial_block(seed: int, args: tuple, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Trials lo..hi - 1, one tuple per trial of each measure named in ``args``.

    A name is a catalog policy or one of _MEASURES. A trial draws x then y
    once from trial_rng(seed, idx), as random_strand would, and hands the
    arrays, valid by construction, to kernels that do not check them.
    Solo slots are built once, when a policy or solo measure needs them:
    solo is x's last slot, max-of-solos the later of the two last slots.
    Every policy walks them, bound to the trial; the one that draws coins
    (random) reads them from the generator right after the strands. optimal
    solves the pairs in blocks of lanes of at most _LANE_CELLS cells a row,
    a quarter of the solver's cell block.
    """
    q, length, names = args
    policies = [get_policy(name) for name in names if name not in _MEASURES]
    look = any(policy.lookahead for policy in policies)
    slotted = bool(policies) or "solo" in names or "max-of-solos" in names
    lanes = max(1, _LANE_CELLS // (length + 1))
    columns: dict[str, list[int]] = {name: [] for name in names}
    pairs = []
    for idx in range(lo, hi):
        gen = trial_rng(seed, idx)
        ax, ay = gen.integers(0, q, size=length), gen.integers(0, q, size=length)
        if "optimal" in columns:
            pairs.append((ax, ay))
            if len(pairs) == lanes or idx == hi - 1:
                xs, ys = zip(*pairs)
                columns["optimal"] += _t_star_lanes(xs, ys, q)
                pairs = []
        if not slotted:
            continue
        sx, sy = _solo_slots(ax, q), _solo_slots(ay, q)
        if "solo" in columns:
            columns["solo"].append(sx[-1])
        if "max-of-solos" in columns:
            columns["max-of-solos"].append(max(sx[-1], sy[-1]))
        nx, ny = (ax[1:].tolist() + [None], ay[1:].tolist() + [None]) if look else (None, None)
        for policy in policies:
            coins = block_stream(gen, 2) if policy.uses_rng else None
            columns[policy.name].append(_run(sx, sy, q, policy.bind(q, nx, ny, coins)))
    return list(zip(*(columns[name] for name in names)))


def pool_size(workers: int, trials: int) -> int:
    """Worker processes to start: at most one per CPU and one per trial.

    Raises ConfigError for fewer than one worker, before any work starts.
    """
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1, trials)


# Symbol walks (trials x L x policies) below which a policy sweep group
# runs serially at any --workers: a fresh `rowsynth experiment` process pays
# about 30-45 ms for a pool of two (the multiprocessing import, two forks),
# which a pool of two wins back at about this many walks at q=2; a walk at
# q=4 has fewer ties and costs about half as much. Measured with
# BENCH_15.json; CHANGES.md quotes the figures.
_POOL_MIN_WALKS = 200_000

# Solver cells (trials x (L + 1)^2) below which estimate_optimal_time runs
# serially at any --workers: below it, fresh `rowsynth conjecture` processes
# ran no faster with two workers than with one. Measured with BENCH_19.json;
# CHANGES.md quotes the figures.
_POOL_MIN_CELLS = 10**8


def _map_trials(block, seed: int, args: tuple, trials: int, workers: int,
                walks: int | None = None, cells: int | None = None) -> list:
    """Every trial's result, in index order, from ``block(seed, args, lo, hi)``.

    A block measure returns the results of trials lo..hi - 1, each drawn
    from its own substream trial_rng(seed, idx). With more than one worker
    the indices are split into one contiguous block per process, unless
    ``walks`` or ``cells`` says the work is under _POOL_MIN_WALKS symbol
    walks or _POOL_MIN_CELLS solver cells.
    """
    workers = pool_size(workers, trials)
    if (workers == 1 or walks is not None and walks < _POOL_MIN_WALKS
            or cells is not None and cells < _POOL_MIN_CELLS):
        return block(seed, args, 0, trials)
    from concurrent.futures import ProcessPoolExecutor  # only a pool pays for its import
    chunk = -(-trials // workers)
    starts = range(0, trials, chunk)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        blocks = pool.map(partial(block, seed, args), starts,
                          [min(lo + chunk, trials) for lo in starts])
        return [t for times in blocks for t in times]


def estimate_policy_times(configs, workers: int = 1) -> list[EstimateResult]:
    """estimate_policy_time of each config, in config order, one pass per sweep group.

    Configs that share (q, L, trials, seed) form a group, run as one
    trial pass: each trial draws its strands once, and every policy of
    the group walks them, so a group costs one draw per trial and starts
    at most one pool. A policy listed twice reuses its result. Every
    config is validated, and the sweep's trials x policies checked against
    MAX_SWEEP_RESULTS, before any trial runs.
    """
    configs = [config.validated() for config in configs]
    groups: dict[tuple, dict[str, None]] = {}
    for c in configs:
        groups.setdefault((c.q, c.length, c.trials, c.seed), {})[c.policy] = None
    kept = sum(key[2] * len(names) for key, names in groups.items())
    if kept > MAX_SWEEP_RESULTS:
        raise ConfigError(f"a sweep of {kept} trial results is over the sweep budget of "
                          f"{MAX_SWEEP_RESULTS}")
    results = {}
    for key, names in groups.items():
        q, length, trials, seed = key
        times = _map_trials(_trial_block, seed, (q, length, tuple(names)), trials,
                            workers, trials * length * len(names))
        for name, column in zip(names, zip(*times)):
            results[key + (name,)] = _summarize(column, length)
    return [results[c.q, c.length, c.trials, c.seed, c.policy] for c in configs]


def estimate_policy_time(config: ExperimentConfig, workers: int = 1) -> EstimateResult:
    """Mean completion time of the configured policy over random pairs."""
    return estimate_policy_times([config], workers)[0]


def _estimate_measure(config: ExperimentConfig, name: str, workers: int = 1,
                      cells: int | None = None) -> EstimateResult:
    """The trial pass of the one measure ``name`` over a validated config's trials."""
    times = _map_trials(_trial_block, config.seed, (config.q, config.length, (name,)),
                        config.trials, workers, cells=cells)
    return _summarize([time for time, in times], config.length)


def estimate_optimal_time(config: ExperimentConfig, workers: int = 1) -> EstimateResult:
    """Mean optimal completion time (exact solver per trial) over random pairs.

    Shares the strand substreams of estimate_policy_time, so at equal seeds
    the comparison is pointwise on identical instances. An alphabet too large
    for the solver's int64 values is refused before any strand is drawn.
    """
    config = config.validated()
    _check_range(config.q, config.length, config.length)
    return _estimate_measure(config, "optimal", workers, config.trials * (config.length + 1) ** 2)


def estimate_solo_time(q: int, length: int, trials: int,
                       seed: int = DEFAULT_SEED) -> EstimateResult:
    """Mean unconstrained single-strand synthesis time; slope targets (q+1)/2."""
    return _estimate_measure(ExperimentConfig(q, length, trials, seed).validated(), "solo")


def estimate_max_lower_bound(q: int, length: int, trials: int,
                             seed: int = DEFAULT_SEED) -> EstimateResult:
    """Mean of max(solo x, solo y) over random pairs; a completion-time floor.

    Defined for q > 2; for the binary alphabet the trivial floor 2L is
    stronger than the concentration correction this estimates.
    """
    if q <= 2:
        raise ConfigError("max-of-solos bound applies to q > 2; use the trivial 2L bound for q=2")
    return _estimate_measure(ExperimentConfig(q, length, trials, seed).validated(),
                             "max-of-solos")


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
    if length < 0:
        raise ConfigError(f"strand length must be >= 0, got {length}")
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
    configs = [ExperimentConfig(q, length, trials, seed,
                                p.name if isinstance(p, TiePolicy) else p).validated()
               for p in policies]
    for config in configs:
        if get_policy(config.policy).lookahead != 0:
            raise ConfigError(f"policy {config.policy!r} uses lookahead; "
                              "the floor covers depth-0 only")
    floor = lf_slope(q)
    out = []
    for config, est in zip(configs, estimate_policy_times(configs, workers)):
        slope_stderr = est.stderr / length
        epsilon = 4 * slope_stderr + 0.01 * floor
        out.append(FloorCheck(config.policy, est.slope, slope_stderr, floor, epsilon,
                              est.slope >= floor - epsilon))
    return out


# --- tabulation ---------------------------------------------------------------

EXPERIMENT_COLUMNS = ("q", "L", "policy", "trials", "seed",
                      "meanT", "stderr", "slope", "analyticSlope", "deltaSigma")


def experiment_rows(configs, workers: int = 1) -> list[dict]:
    """run_experiment_row of each config, in config order, one pass per sweep group."""
    return [_experiment_row(config, est)
            for config, est in zip(configs, estimate_policy_times(configs, workers))]


def run_experiment_row(config: ExperimentConfig, workers: int = 1) -> dict:
    """One CSV-ready row of policy estimates plus the analytic target."""
    return experiment_rows([config], workers)[0]


def _experiment_row(config: ExperimentConfig, est: EstimateResult) -> dict:
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
