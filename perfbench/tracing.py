"""Spans around calls into rowsynth's public functions, from outside the program.

The tracer replaces a function under the module attribute its callers look
up (``rowsynth.experiments.completion_time`` is the name the Monte Carlo
harness calls), so the program itself is unchanged. Every call becomes a
span (name, start, end, parent, request) kept in memory; ``restore()`` puts
the original functions back. Some wrappers also inspect arguments and
results to count the work done (slots, states, rotations, ties), so that
per-unit costs are measured where the work happens.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from collections import Counter
from time import perf_counter_ns


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent index, request]
        self.request = -1
        self.counts: Counter = Counter()
        self.ties_in_span: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._policies: dict[str, object] = {}

    # --- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, on_return=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if on_return else None

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(bound.arguments, result, idx)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def span(self, module, attr, name, on_return=None):
        """Trace calls made through ``module.attr``; skip names the program lacks."""
        if hasattr(module, attr):
            self._patch(module, attr, self._wrap(name, getattr(module, attr), on_return))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _counting_policy(self, policy):
        """The same policy, with every tie it decides counted against the open span."""
        decide, stack, ties = policy.decide, self._stack, self.ties_in_span

        def counted(ctx):
            ties[stack[-1] if stack else -1] += 1
            return decide(ctx)

        return dataclasses.replace(policy, decide=counted)

    def _policy_lookup(self, get_policy):
        def lookup(name):
            if name not in self._policies:
                self._policies[name] = self._counting_policy(get_policy(name))
            return self._policies[name]
        return lookup

    def install(self, cli, experiments, optimal, markov):
        """Wrap the public functions each module's callers look up."""
        c = self.counts

        def greedy(args, result, idx, slots):
            x, y, policy, q = args["x"], args["y"], args["policy"], args["q"]
            kind = "lf1" if policy.lookahead else "depth0"
            c[f"{kind}.slots"] += slots
            c[f"{kind}.idles"] += slots - len(x) - len(y)
            if kind == "depth0":
                c["depth0.ties"] += self.ties_in_span[idx]
                c["depth0.idle_pred"] += slots * (q - 1) / (q + 3)
                c["depth0.tie_pred"] += slots * 4 / (q * (q + 3))

        def on_completion_time(args, t, idx):
            c["model.slots"] += t
            greedy(args, t, idx, t)

        def on_simulate(args, result, idx):
            slots = len(result[0])
            c["simulate.slots"] += slots
            greedy(args, result, idx, slots)

        def on_dp_solve(args, table, idx):
            states = (len(args["x"]) + 1) * (len(args["y"]) + 1) * args["q"]
            c["optimal.states"] += states
            c["optimal.max_table_states"] = max(c["optimal.max_table_states"], states)

        def on_reconstruct(args, result, idx):
            c["reconstruct.slots"] += len(result.schedule)

        def on_rotation_moments(args, stats, idx):
            q = args["q"]
            c["rotations"] += stats.n
            c["rotation_moments.rotations"] += stats.n
            c["chain_slots"] += round(stats.n * stats.mean_t)
            c["slots_per_rotation_pred"] += stats.n * q * (q + 3) / 4

        def on_drift_series(args, series, idx):
            c["rotations"] += args["n_rotations"]

        self.span(cli, "main", "cli.main")
        self.span(cli, "run_experiment_row", "experiments.run_experiment_row")
        self.span(experiments, "estimate_policy_time", "experiments.estimate_policy_time")
        self.span(cli, "estimate_optimal_time", "experiments.estimate_optimal_time")
        self.span(experiments, "trial_rng", "rng.trial_rng")
        self.span(experiments, "random_strand", "experiments.random_strand")
        self.span(experiments, "completion_time", "model.completion_time", on_completion_time)
        self.span(experiments, "t_star", "optimal.t_star")
        self.span(optimal, "dp_solve", "optimal.dp_solve", on_dp_solve)
        self.span(cli, "dp_solve", "optimal.dp_solve", on_dp_solve)
        self.span(cli, "reconstruct", "optimal.reconstruct", on_reconstruct)
        self.span(cli, "simulate", "model.simulate", on_simulate)
        self.span(cli, "apply_schedule", "model.apply_schedule")
        self.span(cli, "rotation_moments", "markov.rotation_moments", on_rotation_moments)
        self.span(cli, "closed_form_rotation", "markov.closed_form_rotation")
        self.span(cli, "lf1_matrix", "markov.lf1_matrix")
        self.span(cli, "stationary", "markov.stationary")
        self.span(cli, "synthesis_rate", "markov.synthesis_rate")
        self.span(markov, "drift_series", "markov.drift_series", on_drift_series)
        for module in (cli, experiments):
            if hasattr(module, "get_policy"):
                self._patch(module, "get_policy", self._policy_lookup(module.get_policy))

    # --- results -------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: total duration (ns), self time (ns) and call count."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        dur, own, calls = Counter(), Counter(), Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            dur[name] += end - start
            own[name] += end - start - child
            calls[name] += 1
        return dur, own, calls

    def layer_metrics(self, scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; span times are multiplied by ``scale``."""
        dur, own, calls = self.totals()
        for totals in (dur, own):
            for name in totals:
                totals[name] *= scale
        c = self.counts
        markov_ns = dur["markov.rotation_moments"] + dur["markov.drift_series"]
        return {
            "rng.trial_rng.calls": (calls["rng.trial_rng"], "count"),
            "rng.trial_rng.us_per_call": (_ratio(dur["rng.trial_rng"] / 1e3,
                                                 calls["rng.trial_rng"]), "us"),
            "experiments.random_strand.calls": (calls["experiments.random_strand"], "count"),
            "experiments.random_strand.us_per_strand": (
                _ratio(dur["experiments.random_strand"] / 1e3,
                       calls["experiments.random_strand"]), "us"),
            "experiments.harness.self_s": ((own["experiments.estimate_policy_time"]
                                            + own["experiments.estimate_optimal_time"]) / 1e9,
                                           "s"),
            "model.completion_time.calls": (calls["model.completion_time"], "count"),
            "model.slots": (c["model.slots"], "count"),
            "model.ns_per_slot": (_ratio(own["model.completion_time"], c["model.slots"]), "ns"),
            "model.simulate.ns_per_slot": (_ratio(own["model.simulate"], c["simulate.slots"]),
                                           "ns"),
            "model.apply_schedule.us_per_call": (_ratio(own["model.apply_schedule"] / 1e3,
                                                        calls["model.apply_schedule"]), "us"),
            "optimal.dp_solve.calls": (calls["optimal.dp_solve"], "count"),
            "optimal.states": (c["optimal.states"], "count"),
            "optimal.ns_per_state": (_ratio(own["optimal.dp_solve"], c["optimal.states"]), "ns"),
            "optimal.max_table_states": (c["optimal.max_table_states"], "count"),
            "optimal.reconstruct.ns_per_slot": (_ratio(own["optimal.reconstruct"],
                                                       c["reconstruct.slots"]), "ns"),
            "markov.rotations": (c["rotations"], "count"),
            "markov.chain_slots": (c["chain_slots"], "count"),
            "markov.us_per_rotation": (_ratio(markov_ns / 1e3, c["rotations"]), "us"),
            "markov.ns_per_chain_slot": (_ratio(dur["markov.rotation_moments"],
                                                c["chain_slots"]), "ns"),
            "markov.drift_series.self_s": (own["markov.drift_series"] / 1e9, "s"),
            "markov.stationary.self_s": (own["markov.stationary"] / 1e9, "s"),
            "cli.main.self_s": (own["cli.main"] / 1e9, "s"),
            "model.idle_fraction": (_ratio(c["depth0.idles"], c["depth0.slots"]), "ratio"),
            "model.idle_fraction.predicted": (_ratio(c["depth0.idle_pred"], c["depth0.slots"]),
                                              "ratio"),
            "model.idle_fraction.lf1": (_ratio(c["lf1.idles"], c["lf1.slots"]), "ratio"),
            "model.idle_fraction.lf1.predicted": (1 / 7 if c["lf1.slots"] else 0.0, "ratio"),
            "policies.ties": (sum(self.ties_in_span.values()), "count"),
            "policies.tie_fraction": (_ratio(c["depth0.ties"], c["depth0.slots"]), "ratio"),
            "policies.tie_fraction.predicted": (_ratio(c["depth0.tie_pred"], c["depth0.slots"]),
                                                "ratio"),
            "markov.slots_per_rotation": (_ratio(c["chain_slots"],
                                                 c["rotation_moments.rotations"]), "count"),
            "markov.slots_per_rotation.predicted": (_ratio(c["slots_per_rotation_pred"],
                                                           c["rotation_moments.rotations"]),
                                                    "count"),
        }

    def write(self, path) -> None:
        """Spans as JSON: one [name, start_ns, end_ns, parent, request] per span."""
        path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "request"],
                                    "spans": self.spans}))
