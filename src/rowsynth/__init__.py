"""Row-constrained two-strand synthesis scheduling.

A library for the model where a machine emits the periodic symbol sequence
0, 1, ..., q-1, 0, ... and at most one strand of a row may append its next
symbol per slot. Provides the greedy simulator with a catalog of tie-break
policies, an exact offline solver with an independent brute-force oracle,
offset-chain rotation analysis with closed-form moments, the binary
one-symbol-lookahead chain with its stationary law, and a seeded Monte
Carlo harness plus a CLI for experiments.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    ConfigError,
    IllegalActionError,
    IncompleteScheduleError,
    InvalidStrandError,
    RowSynthError,
    ScheduleError,
    TableIntegrityError,
    UnsupportedAlphabetError,
)
from .model import (
    Action,
    Schedule,
    SimTrace,
    StepRecord,
    apply_schedule,
    completion_time,
    format_strand,
    parse_strand,
    periodic_symbol,
    simulate,
    simulate_k,
    solo_time,
    validate_strand,
)
from .policies import (
    HistoryDigest,
    TieContext,
    TieDecision,
    TiePolicy,
    get_policy,
    laggard_first,
    lf1,
    policy_catalog,
    policy_names,
    random_tie,
    round_robin,
    x_first,
    y_first,
)
from .optimal import (
    DpTable,
    OptimalResult,
    binary_runs_time,
    complement,
    dp_solve,
    enumerate_interleavings_min,
    lcs_length,
    lcs_upper_bound,
    optimal_schedule,
    reconstruct,
    runs_count,
    t_star,
)
from .markov import (
    ChainEvent,
    ChainStep,
    OffsetState,
    RotationRecord,
    RotationStats,
    chain_step,
    closed_form_rotation,
    decompose_rotations,
    drift_series,
    lf1_matrix,
    rotation_moments,
    stationary,
    synthesis_rate,
    visit_values,
)
from .experiments import (
    BoundsRow,
    EstimateResult,
    ExperimentConfig,
    FloorCheck,
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
)
from .rng import DEFAULT_SEED, master_rng, trial_rng
