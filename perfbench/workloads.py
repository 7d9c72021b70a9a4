"""The four benchmark workloads: inputs from the seed, requests, output checks.

Each workload is a closed loop with one client: the next request is sent
only after the previous one returns. A request is one or more calls into
rowsynth's public entry points (``rowsynth.cli.main`` in-process, and
``rowsynth.markov.drift_series``, which has no CLI) and carries a count of
ops, the workload's unit of work. Request ``k`` is a pure function of the
workload seed and ``k``, so any pass over the same indices sees the same
inputs and, the program being seeded, produces the same outputs.

Requests come in cycles of a fixed composition; a timed run ends on a cycle
boundary, so every run has the same request mix whatever its length.

Output checks use references computed here from the paper's formulas or
slot by slot, not values the program reports about itself. Checks that
need a sample (slopes, rotation means) pool every request of a run; a
workload reports ``enough()`` once each pool holds its minimum sample.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

CATALOG = ("x-first", "y-first", "lf", "lf1", "round-robin", "random")


def sub_seed(seed: int, tag: str, k: int) -> int:
    """A 63-bit seed for request k of a workload, derived from the workload seed."""
    return random.Random(f"{seed}/{tag}/{k}").getrandbits(63)


def policy_slope(policy: str, q: int) -> float:
    """Asymptotic completion-time slope per symbol, from the paper's formulas."""
    if policy in ("x-first", "y-first"):
        return (q + 1) * (q + 7) / (2 * (q + 3))
    if policy == "lf1":
        return 7 / 3
    return (q + 3) / 2  # lf, round-robin, random


def rotation_closed_forms(q: int) -> tuple[float, float, float]:
    """E[V_X], E[V_Y], E[T] of one full rotation of the offset chain."""
    return (q * (q + 3) / (2 * (q + 1)), q * (q - 1) / (2 * (q + 1)), q * (q + 3) / 4)


def reference_solo(z, q: int) -> int:
    """Slot-by-slot greedy solo synthesis time, slot 1 emitting symbol 0."""
    t = i = 0
    while i < len(z):
        t += 1
        if z[i] == (t - 1) % q:
            i += 1
    return t


@dataclass
class Call:
    """One call into the program: exit code, captured output, wall seconds."""

    rc: int
    out: str
    err: str
    seconds: float
    value: object = None

    def failure(self, what: str) -> str | None:
        if self.rc != 0:
            return f"{what}: exit {self.rc}: {self.err.strip()[-300:]}"
        return None


@dataclass
class Outcome:
    """What one request did: ops, seconds inside the program, outputs, failures."""

    ops: int
    seconds: float
    output: str
    failures: list[str] = field(default_factory=list)


def _json(call: Call, what: str, failures: list[str]) -> dict | None:
    msg = call.failure(what)
    if msg:
        failures.append(msg)
        return None
    try:
        return json.loads(call.out)
    except json.JSONDecodeError as exc:
        failures.append(f"{what}: output is not JSON: {exc}")
        return None


class Workload:
    """Base class. Subclasses set the class attributes and implement run()."""

    name = ""
    cycle = 1               # requests per cycle
    trace_requests = 1      # fixed size of a traced run
    overhead_requests = 1   # prefix also run untraced, for bench.trace_overhead

    def __init__(self, seed: int, scratch):
        self.seed = seed
        # pooled check inputs, keyed by request index so a rerun does not count twice
        self.pool: dict[int, dict] = {}

    def run(self, k: int, runner) -> Outcome:
        raise NotImplementedError

    def enough(self) -> bool:
        return True

    def kind(self, k: int):
        """Requests of one kind do the same work on different inputs."""
        return k % self.cycle

    def needed(self, k: int) -> bool:
        """Whether request k would feed a pooled check that lacks its minimum sample."""
        return not self.enough()

    def pooled_failures(self) -> list[tuple[str, set[int]]]:
        """Failed pooled checks, each with the request indices that fed it."""
        return []

    def pool_argvs(self, workers: int) -> list[list[str]]:
        """CLI calls of one cycle at a worker count; empty if the workload has no pool."""
        return []


class McPolicies(Workload):
    """Monte Carlo policy slopes: one trial is one op."""

    name = "mc-policies"
    LENGTH = 2000
    MIN_TRIALS = 100       # per (q, policy) before the slope check is made
    TOLERANCE = 0.01       # the c04-c06 band, as a share of the analytic slope
    # (q, policies, trials per policy). lf1 exists only at q=2, and the config
    # product rejects it elsewhere, so the sweep takes two calls. A q=2 trial
    # costs more (more ties), and the q=4 call holds two thirds of the trials,
    # so op_ms_p50 falls among the q=4 calls and op_ms_p90 among the q=2 calls.
    SWEEPS = ((2, CATALOG, 10), (4, ("x-first", "lf", "random"), 40))
    cycle = 2
    trace_requests = 20
    overhead_requests = 4

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.paths = []
        for q, policies, trials in self.SWEEPS:
            path = scratch / f"mc-q{q}.json"
            path.write_text(json.dumps({"q": q, "L": self.LENGTH, "policy": list(policies),
                                        "trials": trials}))
            self.paths.append(str(path))

    def _argv(self, k: int, workers: int) -> list[str]:
        path = self.paths[k % len(self.paths)]
        return ["experiment", "--config", path, "--seed", str(sub_seed(self.seed, self.name, k)),
                "--workers", str(workers), "--format", "json", "--no-timestamp"]

    def run(self, k, runner):
        q, policies, trials = self.SWEEPS[k % len(self.SWEEPS)]
        call = runner.cli(self._argv(k, 1))
        failures: list[str] = []
        doc = _json(call, f"experiment q={q}", failures)
        if doc is not None:
            rows = doc.get("rows", [])
            got = [(r.get("q"), r.get("L"), r.get("policy"), r.get("trials")) for r in rows]
            want = [(q, self.LENGTH, p, trials) for p in policies]
            if got != want:
                failures.append(f"experiment q={q}: rows {got}, expected {want}")
            else:
                sums = {}
                for r in rows:
                    mean = r["meanT"]
                    # every schedule advances one symbol per slot at most
                    if not (isinstance(mean, (int, float)) and mean >= 2 * self.LENGTH):
                        failures.append(f"experiment q={q} {r['policy']}: meanT {mean!r} < 2L")
                    sums[(q, r["policy"])] = (mean * trials, trials)
                if not failures:
                    self.pool[k] = sums
        return Outcome(trials * len(policies), call.seconds, call.out, failures)

    def _groups(self):
        groups: dict[tuple[int, str], list] = {}
        for k, sums in self.pool.items():
            for key, (total, trials) in sums.items():
                g = groups.setdefault(key, [0.0, 0, set()])
                g[0] += total
                g[1] += trials
                g[2].add(k)
        return groups

    def _short(self, q: int, policies) -> bool:
        groups = self._groups()
        return any(groups.get((q, p), [0, 0])[1] < self.MIN_TRIALS for p in policies)

    def enough(self):
        return not any(self._short(q, policies) for q, policies, _ in self.SWEEPS)

    def needed(self, k):
        q, policies, _ = self.SWEEPS[k % len(self.SWEEPS)]
        return self._short(q, policies)

    def pooled_failures(self):
        out = []
        for (q, policy), (total, trials, ks) in sorted(self._groups().items()):
            slope = total / (trials * self.LENGTH)
            target = policy_slope(policy, q)
            if abs(slope / target - 1) > self.TOLERANCE:
                out.append((f"{policy} q={q}: slope {slope:.4f} over {trials} trials is "
                            f"outside {target:.4f} +-{self.TOLERANCE:.0%}", ks))
        return out

    def pool_argvs(self, workers):
        return [self._argv(k, workers) for k in range(self.cycle)]


class ExactSlope(Workload):
    """Measured optimal slope: one exact solve is one op."""

    name = "exact-slope"
    # (q, L, trials per call); one cycle is one call of each
    CALLS = ((2, 200, 4), (4, 300, 1))
    MIN_TRIALS = {2: 20, 4: 5}
    cycle = 2
    trace_requests = 10
    overhead_requests = 2

    def run(self, k, runner):
        q, length, trials = self.CALLS[k % len(self.CALLS)]
        seed = sub_seed(self.seed, self.name, k)
        call = runner.cli(["conjecture", "--q", str(q), "--length", str(length),
                           "--trials", str(trials), "--seed", str(seed), "--workers", "1",
                           "--no-timestamp"])
        failures: list[str] = []
        doc = _json(call, f"conjecture q={q}", failures)
        if doc is not None:
            got = (doc.get("q"), doc.get("L"), doc.get("trials"))
            mean = doc.get("meanTStar")
            if got != (q, length, trials):
                failures.append(f"conjecture q={q}: echoed {got}")
            elif not (isinstance(mean, (int, float)) and mean >= 2 * length):
                failures.append(f"conjecture q={q}: meanTStar {mean!r} < 2L")
            else:
                self.pool[k] = {"q": q, "total": mean * trials, "trials": trials}
        return Outcome(trials, call.seconds, call.out, failures)

    def _groups(self):
        groups: dict[int, list] = {}
        for k, p in self.pool.items():
            g = groups.setdefault(p["q"], [0.0, 0, set()])
            g[0] += p["total"]
            g[1] += p["trials"]
            g[2].add(k)
        return groups

    def _short(self, q: int) -> bool:
        return self._groups().get(q, [0, 0])[1] < self.MIN_TRIALS[q]

    def enough(self):
        return not any(self._short(q) for q in self.MIN_TRIALS)

    def needed(self, k):
        return self._short(self.CALLS[k % len(self.CALLS)][0])

    def pooled_failures(self):
        out = []
        brackets = {2: (2.0, 2.5)}  # c11
        for q, (total, trials, ks) in sorted(self._groups().items()):
            length = next(c[1] for c in self.CALLS if c[0] == q)
            # between the solo slope and the laggard-first slope
            lo, hi = brackets.get(q, ((q + 1) / 2, (q + 3) / 2))
            slope = total / (trials * length)
            if not lo <= slope <= hi:
                out.append((f"optimal slope q={q}: {slope:.4f} over {trials} trials "
                            f"outside [{lo}, {hi}]", ks))
        return out


@dataclass(frozen=True)
class Instance:
    q: int
    x: tuple[int, ...]
    y: tuple[int, ...]
    policy: str
    sim_seed: int


class SolveRequests(Workload):
    """Solve, validate and simulate one instance: one request is one op."""

    name = "solve-requests"
    QS = (2, 3, 4)
    # L log-uniform over [4, 400], stratified: each cycle holds one instance
    # per (q, L) on a log-spaced grid, so every run has the same size mix
    # 15 strata make a cycle of 45, so the 10% and 50% cut points fall mid-way
    # through one (q, L) cell's requests rather than between two cells.
    STRATA = 15
    L_MIN, L_MAX = 4, 400
    ORACLE_MAX_L = 6
    cycle = len(QS) * STRATA
    trace_requests = cycle
    overhead_requests = cycle

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self._cached = (-1, [])

    def _policies(self, q: int) -> tuple[str, ...]:
        return CATALOG if q == 2 else tuple(p for p in CATALOG if p != "lf1")

    def instance(self, k: int) -> Instance:
        c, pos = divmod(k, self.cycle)
        if self._cached[0] != c:
            rng = random.Random(f"{self.seed}/{self.name}/{c}")
            ratio = self.L_MAX / self.L_MIN
            cells = [(q, round(self.L_MIN * ratio ** (s / (self.STRATA - 1))))
                     for q in self.QS for s in range(self.STRATA)]
            rng.shuffle(cells)
            batch = []
            for n, (q, length) in enumerate(cells):
                x = tuple(rng.randrange(q) for _ in range(length))
                y = tuple(rng.randrange(q) for _ in range(length))
                policies = self._policies(q)
                batch.append(Instance(q, x, y, policies[(c * self.cycle + n) % len(policies)],
                                      rng.getrandbits(32)))
            self._cached = (c, batch)
        return self._cached[1][pos]

    def kind(self, k):
        inst = self.instance(k)
        return inst.q, len(inst.x)

    def run(self, k, runner):
        inst = self.instance(k)
        q = str(inst.q)
        xs = "".join(map(str, inst.x))
        ys = "".join(map(str, inst.y))
        failures: list[str] = []
        seconds = 0.0
        outputs = []
        solve = runner.cli(["solve", "--q", q, "--x", xs, "--y", ys, "--no-timestamp"])
        seconds += solve.seconds
        outputs.append(solve.out)
        doc = _json(solve, "solve", failures)
        t_star = schedule = None
        if doc is not None:
            t_star, schedule = doc.get("tStar"), doc.get("schedule")
            if not isinstance(t_star, int) or not isinstance(schedule, str):
                failures.append(f"solve: bad output {doc!r}"[:300])
                t_star = None
        if t_star is not None:
            # Passed as one token: a schedule that opens with an idle ("-,Y")
            # would otherwise be read by argparse as a flag (exit 2).
            validate = runner.cli(["validate", "--q", q, "--x", xs, "--y", ys,
                                   f"--schedule={schedule}", "--no-timestamp"])
            seconds += validate.seconds
            outputs.append(validate.out)
            vdoc = _json(validate, "validate", failures)
            if vdoc is not None and vdoc.get("completionTime") != t_star:
                failures.append(f"validate: {vdoc.get('completionTime')} != tStar {t_star}")
            sim = runner.cli(["simulate", "--q", q, "--x", xs, "--y", ys, "--policy", inst.policy,
                              "--seed", str(inst.sim_seed), "--no-timestamp"])
            seconds += sim.seconds
            outputs.append(sim.out)
            sdoc = _json(sim, f"simulate {inst.policy}", failures)
            if sdoc is not None and not (isinstance(sdoc.get("completionTime"), int)
                                         and sdoc["completionTime"] >= t_star):
                failures.append(f"simulate {inst.policy}: {sdoc.get('completionTime')} "
                                f"beats tStar {t_star}")
            floor = max(reference_solo(inst.x, inst.q), reference_solo(inst.y, inst.q))
            if t_star < floor:
                failures.append(f"solve: tStar {t_star} below the larger solo time {floor}")
            if len(inst.x) <= self.ORACLE_MAX_L:
                best = runner.oracle(inst.x, inst.y, inst.q)
                if best != t_star:
                    failures.append(f"solve: tStar {t_star} != interleaving minimum {best}")
        if failures:
            failures = [f"q={inst.q} L={len(inst.x)}: {f}" for f in failures]
        return Outcome(1, seconds, "".join(outputs), failures)


class ChainRotations(Workload):
    """Rotation moments, drift series and the lookahead chain: one rotation is one op."""

    name = "chain-rotations"
    QS = (2, 3, 4, 5)
    ROTATIONS = 1500            # per rotations call
    DRIFT_ROTATIONS = 1000      # per drift_series call
    # Rotations per q before the closed-form check is made: enough for the 2%
    # band to hold five standard errors of the V_Y mean, whose relative sd per
    # rotation is about 2.0, 1.6, 1.44 and 1.35 at q = 2..5.
    MIN_ROTATIONS = {2: 250_000, 3: 160_000, 4: 130_000, 5: 115_000}
    TOLERANCE = 0.02            # c03
    DRIFT_RATIO = 20
    # One rotations call per q, both drift series, then the chain (no ops).
    # Rotation cost grows with q, so op_ms_p50 falls among the q=3 calls and
    # op_ms_p90 among the q=5 calls.
    cycle = len(QS) + 2
    trace_requests = 50 * cycle
    overhead_requests = 5 * cycle

    def run(self, k, runner):
        kind = k % self.cycle
        seed = sub_seed(self.seed, self.name, k)
        if kind < len(self.QS):
            return self._rotations(k, self.QS[kind], seed, runner)
        if kind > len(self.QS):
            chain = runner.cli(["chain", "--format", "json", "--no-timestamp"])
            failures: list[str] = []
            doc = _json(chain, "chain", failures)
            if doc is not None and doc.get("rate") != "6/7":
                failures.append(f"chain: rate {doc.get('rate')!r} != 6/7")
            return Outcome(0, chain.seconds, chain.out, failures)
        failures = []
        lf = runner.drift(2, self.DRIFT_ROTATIONS, seed, "lf")
        xf = runner.drift(2, self.DRIFT_ROTATIONS, seed, "x-first")
        for call, policy in ((lf, "lf"), (xf, "x-first")):
            msg = call.failure(f"drift_series {policy}")
            if msg:
                failures.append(msg)
            elif call.value[-1][0] != self.DRIFT_ROTATIONS:
                failures.append(f"drift_series {policy}: last checkpoint {call.value[-1]}")
        if not failures:
            lf_mean, xf_mean = lf.value[-1][1], xf.value[-1][1]
            if not lf_mean < xf_mean / self.DRIFT_RATIO:
                failures.append(f"drift: lf {lf_mean} not below x-first {xf_mean} / "
                                f"{self.DRIFT_RATIO}")
        return Outcome(2 * self.DRIFT_ROTATIONS, lf.seconds + xf.seconds,
                       repr(lf.value) + repr(xf.value), failures)

    def _rotations(self, k, q, seed, runner):
        call = runner.cli(["rotations", "--q", str(q), "--rotations", str(self.ROTATIONS),
                           "--seed", str(seed), "--format", "json", "--no-timestamp"])
        failures: list[str] = []
        doc = _json(call, f"rotations q={q}", failures)
        if doc is not None:
            rows = doc.get("rows", [])
            got = [(r.get("q"), r.get("nRotations")) for r in rows]
            if got != [(q, self.ROTATIONS)]:
                failures.append(f"rotations q={q}: rows {got}")
            else:
                self.pool[k] = {"q": q, "means": (rows[0]["meanVX"], rows[0]["meanVY"],
                                                  rows[0]["meanT"])}
        return Outcome(self.ROTATIONS, call.seconds, call.out, failures)

    def _groups(self):
        groups: dict[int, list] = {}
        for k, p in self.pool.items():
            groups.setdefault(p["q"], []).append((k, p["means"]))
        return groups

    def _short(self, q: int) -> bool:
        return len(self._groups().get(q, ())) * self.ROTATIONS < self.MIN_ROTATIONS[q]

    def enough(self):
        return not any(self._short(q) for q in self.QS)

    def needed(self, k):
        kind = k % self.cycle
        return kind < len(self.QS) and self._short(self.QS[kind])

    def pooled_failures(self):
        out = []
        for q, entries in sorted(self._groups().items()):
            n = len(entries)
            ks = {k for k, _ in entries}
            means = [sum(m[i] for _, m in entries) / n for i in range(3)]
            for label, got, want in zip(("V_X", "V_Y", "T"), means, rotation_closed_forms(q)):
                if abs(got / want - 1) > self.TOLERANCE:
                    out.append((f"rotations q={q}: mean {label} {got:.5f} over "
                                f"{n * self.ROTATIONS} rotations is outside {want:.5f} "
                                f"+-{self.TOLERANCE:.0%}", ks))
        return out


WORKLOADS = {w.name: w for w in (McPolicies, ExactSlope, SolveRequests, ChainRotations)}
