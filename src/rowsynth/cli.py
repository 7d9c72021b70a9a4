"""Command-line front door.

Subcommands cover the whole library surface: simulate a pair under a
policy, solve an instance exactly, check it against the brute-force
oracle, validate an externally written schedule, estimate rotation
moments, print the lookahead chain, tabulate analytic bounds, sweep
policy experiments, and report the measured optimal slope.

All randomness flows from --seed (default 0xDA7A); ROWSYNTH_SEED and
ROWSYNTH_FORMAT provide environment overrides, with flags taking
precedence. Both are read on every main() call, after parsing, so the one
parser a process builds on its first call still sees a changed
environment. A call that names its command goes straight to that
command's parser; the top-level parser still reads a call with no command
or an unknown one, the top-level --help and a call with a flag its command
does not know, so every usage message stays the same. Every command
refuses a negative seed, and JSON-only commands take only --format json
and ignore ROWSYNTH_FORMAT. JSON output always carries a metadata object;
--no-timestamp suppresses the timestamp for byte-stable golden files. Exit
status: 0 on success, 1 on validation/configuration errors, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .errors import RowSynthError
from .experiments import (
    ExperimentConfig,
    analytic_bounds,
    conjectured_optimal_slope,
    estimate_optimal_time,
    experiment_rows,
    rows_to_csv,
)
from .markov import closed_form_rotation, lf1_matrix, rotation_moments, stationary, synthesis_rate
from .model import Schedule, apply_schedule, digit_tokens, format_strand, parse_strand, simulate_k
from .optimal import enumerate_interleavings_min, optimal_schedule
from .policies import get_policy, policy_names
from .rng import DEFAULT_SEED, master_rng, validate_seed

ENV_SEED = "ROWSYNTH_SEED"
ENV_FORMAT = "ROWSYNTH_FORMAT"

DEFAULT_Q = 2
DEFAULT_LENGTH = 1000
DEFAULT_TRIALS = 100


def _env_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw, 0)
    except ValueError:
        raise RowSynthError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


def _env_format(formats: tuple[str, ...]) -> str:
    raw = os.environ.get(ENV_FORMAT)
    if raw is None or len(formats) == 1:
        return formats[0]
    if raw not in formats:
        raise RowSynthError(f"{ENV_FORMAT} must be 'csv' or 'json', got {raw!r}")
    return raw


def _metadata(args) -> dict:
    meta = {"toolVersion": __version__, "seed": args.seed}
    if not args.no_timestamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise RowSynthError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    doc = {"metadata": _metadata(args)}
    doc.update(payload)
    _emit(args, json.dumps(doc, indent=2) + "\n")


def _emit_rows(args, rows: list[dict]) -> None:
    """Emit rows as JSON or as CSV headed by the first row's keys; rows are never empty."""
    if args.format == "json":
        _emit_json(args, {"rows": rows})
    else:
        _emit(args, rows_to_csv(rows, tuple(rows[0])))


def _parse_q_list(text: str) -> list[int]:
    tokens = digit_tokens(text)  # the tokens of a comma-separated strand
    if tokens is None:
        raise RowSynthError(f"--q must be comma-separated alphabet sizes, got {text!r}")
    return list(map(int, tokens))


# --- subcommand handlers -----------------------------------------------------


def _cmd_simulate(args) -> int:
    policy = get_policy(args.policy)
    rng = master_rng(args.seed) if policy.uses_rng else None  # no other policy draws
    schedule = simulate_k((args.x, args.y), policy, args.q, rng)
    _emit_json(args, {
        "q": args.q,
        "policy": policy.name,
        "x": format_strand(args.x),
        "y": format_strand(args.y),
        "completionTime": schedule.completion_time,
        "schedule": schedule.to_string(),
    })
    return 0


def _cmd_solve(args) -> int:
    x, y = args.x, args.y
    result = optimal_schedule(x, y, args.q)
    payload = {
        "q": args.q,
        "L": max(len(x), len(y)),
        "tStar": result.t_star,
        "schedule": result.schedule.to_string(),
    }
    if len(x) != len(y):
        payload["Lx"] = len(x)
        payload["Ly"] = len(y)
    _emit_json(args, payload)
    return 0


def _cmd_oracle(args) -> int:
    best = enumerate_interleavings_min(args.x, args.y, args.q, budget=args.budget)
    _emit_json(args, {
        "q": args.q,
        "tStar": best,
        "interleavingsChecked": math.comb(len(args.x) + len(args.y), len(args.x)),
    })
    return 0


def _cmd_validate(args) -> int:
    schedule = Schedule.from_string(args.schedule)
    t = apply_schedule(args.x, args.y, schedule, args.q)
    _emit_json(args, {"q": args.q, "completionTime": t})
    return 0


def _cmd_rotations(args) -> int:
    rows = []
    for q in _parse_q_list(args.q):
        stats = rotation_moments(q, args.rotations, args.seed)
        closed = closed_form_rotation(q)
        rows.append({
            "q": q,
            "nRotations": stats.n,
            "meanVX": stats.mean_vx,
            "meanVY": stats.mean_vy,
            "meanT": stats.mean_t,
            "stderrVX": stats.stderr_vx,
            "stderrVY": stats.stderr_vy,
            "stderrT": stats.stderr_t,
            "closedVX": float(closed[0]),
            "closedVY": float(closed[1]),
            "closedT": float(closed[2]),
        })
    _emit_rows(args, rows)
    return 0


def _cmd_chain(args) -> int:
    matrix = lf1_matrix()
    pi = stationary(matrix)
    rate = synthesis_rate(pi)
    payload = {
        "pi": [str(v) for v in pi],
        "piDecimal": [float(v) for v in pi],
        "rate": str(rate),
        "rateDecimal": float(rate),
    }
    if not args.stationary:
        payload["matrix"] = [[str(v) for v in row] for row in matrix]
    _emit_json(args, payload)
    return 0


def _cmd_bounds(args) -> int:
    rows = []
    for q in _parse_q_list(args.q):
        b = analytic_bounds(q, args.length)
        rows.append({
            "q": b.q,
            "L": b.length,
            "soloExpected": b.solo_expected,
            "xFirstExpected": b.x_first_expected,
            "lfExpected": b.lf_expected,
            "lf1Expected": b.lf1_expected,
            "lowerMaxExpected": b.lower_max_expected,
            "trivialLower": b.trivial_lower,
        })
    _emit_rows(args, rows)
    return 0


def _read_config_raw(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise RowSynthError(f"config file not found: {path}") from None
    except OSError as exc:
        raise RowSynthError(f"cannot read config file {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise RowSynthError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise RowSynthError(f"{path}: expected a JSON object of keys to values or lists")
    return raw


def load_config(path: str) -> list[ExperimentConfig]:
    """Read a sweep file: a flat JSON object, each key scalar or list.

    Keys: q, L, policy, trials, seed. List values expand to the cartesian
    product (in that key order), e.g. L=[250,1000,2000] gives three configs.
    An empty list, or a q, L, trials or seed that is not an integer, raises
    RowSynthError naming the key.
    """
    return expand_configs(_read_config_raw(path), path)


_CONFIG_KEYS = ("q", "L", "policy", "trials", "seed")
_CONFIG_DEFAULTS = {"q": DEFAULT_Q, "L": DEFAULT_LENGTH, "policy": "lf",
                    "trials": DEFAULT_TRIALS, "seed": DEFAULT_SEED}


def expand_configs(raw: dict, source: str = "<flags>") -> list[ExperimentConfig]:
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise RowSynthError(f"{source}: unknown config keys {sorted(unknown)}")
    axes = []
    for key in _CONFIG_KEYS:
        value = raw.get(key, _CONFIG_DEFAULTS[key])
        values = value if isinstance(value, list) else [value]
        if not values:
            raise RowSynthError(f"{source}: {key} lists no values")
        if key != "policy" and not all(type(v) is int for v in values):  # not bool
            raise RowSynthError(f"{source}: {key} must be an integer or a list of integers, "
                                f"got {value!r}")
        axes.append(values)
    return [ExperimentConfig(q=q, length=length, trials=trials, seed=seed,
                             policy=str(policy)).validated()
            for q, length, policy, trials, seed in itertools.product(*axes)]


def _cmd_experiment(args) -> int:
    raw = _read_config_raw(args.config) if args.config else {}
    flags = {"q": args.q, "L": args.length, "policy": args.policy, "trials": args.trials}
    raw.update((key, value) for key, value in flags.items() if value is not None)
    if args.seed_given or "seed" not in raw:
        raw["seed"] = args.seed
    configs = expand_configs(raw, args.config or "<flags>")
    _emit_rows(args, experiment_rows(configs, args.workers))
    return 0


def _cmd_conjecture(args) -> int:
    config = ExperimentConfig(args.q, args.length, args.trials, args.seed)
    est = estimate_optimal_time(config, workers=args.workers)
    _emit_json(args, {
        "q": args.q,
        "L": args.length,
        "trials": args.trials,
        "meanTStar": est.mean,
        "stderr": est.stderr,
        "slope": est.slope,
        "conjecturedSlope": conjectured_optimal_slope(args.q),
    })
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rowsynth",
        description="Two-strand synthesis scheduling under a row constraint: "
                    "simulate policies, solve instances exactly, analyze the offset chain.",
        epilog=f"Environment: {ENV_SEED} overrides the default seed, {ENV_FORMAT} the "
               "default output format; explicit flags win.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_common(p, formats):
        p.add_argument("--out", help="write output to a file instead of stdout")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp from JSON metadata (golden-file mode)")
        p.add_argument("--format", choices=formats, default=None,
                       help=f"output format (default: ${ENV_FORMAT}, else {formats[0]})"
                       if len(formats) > 1 else "output format (json only)")
        p.set_defaults(formats=formats)
        p.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                       help=f"master seed (default {hex(DEFAULT_SEED)})")

    def add_instance(p):
        p.add_argument("--q", type=int, default=DEFAULT_Q, help="alphabet size")
        p.add_argument("--x", required=True, help="strand 1, e.g. '1,3,2,2' or '1322'")
        p.add_argument("--y", required=True, help="strand 2")

    p = sub.add_parser("simulate", help="greedy simulation of a pair under a tie policy")
    add_instance(p)
    p.add_argument("--policy", choices=policy_names(), default="lf")
    add_common(p, ("json",))
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("solve", help="exact optimal schedule via one tie bit per cell")
    add_instance(p)
    add_common(p, ("json",))
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="brute-force optimum over all interleavings")
    add_instance(p)
    p.add_argument("--budget", type=int, default=10**6,
                   help="maximum number of interleavings to enumerate")
    add_common(p, ("json",))
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("validate", help="check and score an externally written schedule")
    add_instance(p)
    p.add_argument("--schedule", required=True,
                   help="comma-separated actions over X, Y and - (idle)")
    add_common(p, ("json",))
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("rotations", help="empirical rotation moments vs closed forms")
    p.add_argument("--q", default=str(DEFAULT_Q), help="alphabet size(s), e.g. 2 or 2,3,4")
    p.add_argument("--rotations", type=int, default=100_000, help="rotations per alphabet")
    add_common(p, ("csv", "json"))
    p.set_defaults(func=_cmd_rotations)

    p = sub.add_parser("chain", help="lookahead chain: transition matrix, stationary law, rate")
    p.add_argument("--stationary", action="store_true", help="print only the stationary law")
    add_common(p, ("json",))
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("bounds", help="analytic expected-time table at one length")
    p.add_argument("--q", default=str(DEFAULT_Q), help="alphabet size(s), e.g. 2 or 2,4")
    p.add_argument("--length", type=int, default=DEFAULT_LENGTH, help="strand length L")
    add_common(p, ("csv", "json"))
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="Monte Carlo policy sweep to CSV/JSON")
    p.add_argument("--config", help="JSON sweep file; flags override its values")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--length", type=int, default=None, help="strand length L")
    p.add_argument("--policy", choices=policy_names(), default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes (at most one per CPU and per trial)")
    add_common(p, ("csv", "json"))
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("conjecture", help="measured optimal slope vs its conjectured value")
    p.add_argument("--q", type=int, default=DEFAULT_Q)
    p.add_argument("--length", type=int, default=200, help="strand length L")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--workers", type=int, default=1)
    add_common(p, ("json",))
    p.set_defaults(func=_cmd_conjecture)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first main() call, not at import.

    parse_args leaves a parser unchanged, so every later call can share it;
    nothing that may change between calls, such as the environment, is read
    while it is built.
    """
    return build_parser()


@functools.cache
def _commands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser by name: the choices of _parser()'s subparsers action."""
    return next(a.choices for a in _parser()._actions if a.dest == "command")


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv as _parser() does, handing a named command's arguments straight to its parser.

    The top-level parser matches argv against its own actions before its
    subparsers action hands the rest to the command's parser; a call that
    names its command skips that step and sets ``command`` as the action
    would. No command, an unknown one, the top-level --help and arguments
    the command does not know go through the top-level parser, whose usage
    messages and exits are then the same as without the shortcut.
    """
    sub = _commands().get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _parser().parse_args(argv)


def _bind_schedule(argv: list[str]) -> list[str]:
    """Join "--schedule S" into "--schedule=S".

    argparse reads a separate value that starts with "-" as a flag, and a
    schedule that opens with an idle ("-,X,...") does.
    """
    out: list[str] = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok == "--schedule" else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def main(argv=None) -> int:
    try:
        args = _parse(_bind_schedule(sys.argv[1:] if argv is None else argv))
        if args.format is None:
            args.format = _env_format(args.formats)
        args.seed_given = args.seed is not None
        if args.seed is None:
            args.seed = _env_seed()
        validate_seed(args.seed)
        if "x" in args:  # an instance: read its strands once, x before y
            args.x, args.y = parse_strand(args.x, args.q), parse_strand(args.y, args.q)
        return args.func(args)
    except (RowSynthError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
