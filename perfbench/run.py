#!/usr/bin/env python3
"""rowsynth benchmark: closed-loop workloads driven through the package's entry points.

Run from the repository root:

    python3 perfbench/run.py --workload mc-policies --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in;
nothing needs to be built or installed. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The line before it carries provenance and sample counts.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over several fresh processes of the main thread's CPU
  time to get the inputs ready (import of ``rowsynth.cli`` plus building the
  workload's configs or instances), scaled by reference processes that
  import only the program's dependencies;
- ``ops_per_s``: ops completed per second inside the program during the
  timed phase, which runs whole cycles of requests for about ``--seconds``;
- ``op_ms_p50``, ``op_ms_p90``: percentiles of per-op latency, each op
  taking its request's duration divided by the ops in that request;
- ``peak_rss_mb``: the benchmark process's maximum resident set size.

``--trace 1`` runs a fixed number of requests with spans around calls into
each module (see ``tracing.py``) and reports the per-layer metrics, plus the
tracing overhead against an untraced pass over the same first requests.

Outputs are checked outside the timed phase; a request whose calls exit
non-zero or whose outputs fail a check counts all its ops as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, Call, Outcome
from yardstick import Yardstick

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 11
# What a set-up reference imports: numpy and the standard modules rowsynth imports.
REFERENCE_IMPORTS = ("numpy", "concurrent.futures", "dataclasses", "datetime", "enum",
                     "fractions", "itertools", "math", "typing")
REFERENCE_NOMINAL_S = 0.09
PROBE_TIMEOUT_S = 60
TOP_UP_LIMIT_S = 90
PASSES = 3


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import rowsynth from src/ of this checkout, and nowhere else."""
    if not (SRC / "rowsynth" / "cli.py").is_file():
        raise ProgramMissing(f"no rowsynth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rowsynth.cli
    if not Path(rowsynth.cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"rowsynth imported from {rowsynth.cli.__file__}, not {SRC}")
    return rowsynth.cli


class Runner:
    """Calls into the program in-process, timing each call and capturing its output."""

    def __init__(self, cli, markov, optimal):
        self.cli_module = cli
        self.markov = markov
        self.optimal = optimal

    def cli(self, argv: list[str]) -> Call:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli_module.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed op, not a failed benchmark
            rc = -1
            err.write(traceback.format_exc())
        return Call(rc, out.getvalue(), err.getvalue(), time.perf_counter() - start)

    def drift(self, q: int, n: int, seed: int, policy: str) -> Call:
        start = time.perf_counter()
        try:
            value = self.markov.drift_series(q, n, seed, policy)
        except Exception:
            return Call(-1, "", traceback.format_exc(), time.perf_counter() - start)
        return Call(0, "", "", time.perf_counter() - start, value)

    def oracle(self, x, y, q: int) -> int:
        return self.optimal.enumerate_interleavings_min(x, y, q)


def weighted_percentile(samples: list[tuple[float, int]], p: float) -> float:
    """Smallest value whose cumulative weight reaches share p of the total."""
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    acc = 0
    for value, weight in ordered:
        acc += weight
        if acc >= p * total:
            return value
    return ordered[-1][0]


def provenance(seed: int) -> dict:
    import numpy
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "seed": seed,
            "machine": platform.machine()}


def setup_probe(workload: str, seed: int) -> int:
    """Child process: import the program and build the inputs, in CPU seconds."""
    start = time.thread_time()
    load_program()
    imported = time.thread_time()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"probe-{workload}-") as scratch:
        WORKLOADS[workload](seed, Path(scratch))
    print(json.dumps({"setup_s": time.thread_time() - start, "import_s": imported - start}))
    return 0


def setup_reference() -> int:
    """Child process: import the program's dependencies, but no program code."""
    start = time.thread_time()
    for name in REFERENCE_IMPORTS:
        importlib.import_module(name)
    print(json.dumps({"reference_s": time.thread_time() - start}))
    return 0


def child(workload: str, seed: int, flag: str) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), flag,
                           "--workload", workload, "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{flag} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time and import time, each the median over fresh processes.

    Both are main-thread CPU seconds, scaled by REFERENCE_NOMINAL_S over the
    median of reference processes that alternate with the probes. A
    reference starts the same way and imports the program's dependencies,
    so it slows with the host as set-up does; it runs no program code.
    """
    setups, imports, references = [], [], []
    for _ in range(SETUP_PROBES):
        references.append(child(workload, seed, "--setup-reference")["reference_s"])
        probe = child(workload, seed, "--setup-probe")
        setups.append(probe["setup_s"])
        imports.append(probe["import_s"])
    scale = REFERENCE_NOMINAL_S / statistics.median(references)
    return scale * statistics.median(setups), scale * statistics.median(imports)


class Bench:
    def __init__(self, wl, runner):
        self.wl = wl
        self.runner = runner
        self.outcomes: dict[int, Outcome] = {}   # latest outcome per request index

    def run(self, k: int) -> Outcome:
        outcome = self.wl.run(k, self.runner)
        for msg in outcome.failures:
            print(f"perfbench: request {k}: {msg}", file=sys.stderr)
        if k in self.outcomes:  # a rerun keeps the failures of earlier runs
            outcome.failures[:0] = self.outcomes[k].failures
        self.outcomes[k] = outcome
        return outcome

    def fail(self, k: int, msg: str) -> None:
        self.outcomes[k].failures.append(msg)
        print(f"perfbench: request {k}: {msg}", file=sys.stderr)

    def timed(self, seconds: float, requests: int | None, yardstick: Yardstick):
        """PASSES passes over the same requests; returns (k, seconds, ops) per run.

        Pass one runs whole cycles until the next would overrun
        ``seconds / PASSES``, or exactly ``requests``. The later passes repeat
        those requests in the same order and must reproduce their outputs.
        The yardstick samples the machine's speed between requests.
        """
        done: list[tuple[int, float, int]] = []
        outputs: list[str] = []
        start = time.perf_counter()
        while requests is None or len(outputs) < requests:
            cycle_start = time.perf_counter()
            for _ in range(self.wl.cycle if requests is None else 1):
                k = len(outputs)
                outcome = self.run(k)
                done.append((k, outcome.seconds, outcome.ops))
                outputs.append(outcome.output)
                yardstick.sample()
            now = time.perf_counter()
            if requests is None and now - start + (now - cycle_start) > seconds / PASSES:
                break
        for _ in range(PASSES - 1):
            for k, first in enumerate(outputs):
                outcome = self.run(k)
                done.append((k, outcome.seconds, outcome.ops))
                if outcome.output != first:
                    self.fail(k, "output differs from the first pass")
                yardstick.sample()
        return done

    def top_up(self, first: int) -> None:
        """Untimed requests, from index ``first`` on, until every pooled check has
        its minimum sample; requests that feed no short pool are skipped."""
        k = first
        start = time.perf_counter()
        while not self.wl.enough() and time.perf_counter() - start < TOP_UP_LIMIT_S:
            if self.wl.needed(k):
                self.run(k)
            k += 1

    def tally(self) -> tuple[int, int, list[str]]:
        """Ops attempted, ops failed, and the failure messages."""
        failed = {k for k, o in self.outcomes.items() if o.failures}
        messages = [m for o in self.outcomes.values() for m in o.failures]
        if not self.wl.enough():
            messages.append("pooled checks lack their minimum sample")
            failed = set(self.outcomes)
        for msg, ks in self.wl.pooled_failures():
            messages.append(msg)
            failed |= ks
        attempted = sum(o.ops for o in self.outcomes.values())
        return attempted, sum(self.outcomes[k].ops for k in failed), messages


def end_to_end(bench: Bench, args, setup_s: float) -> tuple[dict, dict]:
    yardstick = Yardstick()
    done = bench.timed(args.seconds, args.requests, yardstick)
    ops = {k: n for k, _, n in done}
    bench.top_up(len(ops))
    # Each request is charged the median time of its kind over all passes
    # (its position in the cycle, or its instance size), which keeps bursts
    # of contention on a shared host out of the figures; the yardstick
    # cancels slower drift.
    scale = yardstick.scale()
    by_kind: dict[object, list[float]] = {}
    for k, seconds, _ in done:
        by_kind.setdefault(bench.wl.kind(k), []).append(seconds)
    typical = {kind: scale * statistics.median(t) for kind, t in by_kind.items()}
    charged = [(typical[bench.wl.kind(k)], n) for k, n in ops.items()]
    per_op = [(1e3 * t / n, n) for t, n in charged if n]  # the chain call has no ops
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(ops.values()) / sum(t for t, _ in charged), "1/s"),
        "op_ms_p50": (weighted_percentile(per_op, 0.5), "ms"),
        "op_ms_p90": (weighted_percentile(per_op, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"timed_requests": len(ops), "passes": PASSES, "request_kinds": len(by_kind),
                     "timed_ops": sum(ops.values()), "timed_s": sum(t for _, t, _ in done),
                     "time_scale": scale, "yardstick_samples": len(yardstick.samples)}


def traced(bench: Bench, args, import_s: float, program) -> tuple[dict, dict]:
    from tracing import Tracer

    wl = bench.wl
    n = args.requests or wl.trace_requests
    prefix = min(n, wl.overhead_requests)
    untraced = [bench.run(k) for k in range(prefix)]
    tracer = Tracer()
    yardstick = Yardstick()
    tracer.install(*program)
    try:
        for k in range(n):
            tracer.request = k
            bench.run(k)
            yardstick.sample()
    finally:
        tracer.restore()
    for k, before in enumerate(untraced):
        if bench.outcomes[k].output != before.output:
            bench.fail(k, "traced output differs from untraced output")
    overhead = (sum(bench.outcomes[k].seconds for k in range(prefix))
                / sum(o.seconds for o in untraced) - 1)
    bench.top_up(n)

    metrics = tracer.layer_metrics(yardstick.scale())
    metrics["cli.import_s"] = (import_s, "s")
    metrics["bench.trace_overhead"] = (overhead, "ratio")
    pool = {1: 0.0, 2: 0.0}
    for k, _ in enumerate(wl.pool_argvs(1)):
        outputs = {}
        for workers in pool:
            call = bench.runner.cli(wl.pool_argvs(workers)[k])
            pool[workers] += call.seconds
            outputs[workers] = call.out
            if call.rc != 0:
                bench.fail(k, call.failure(f"pool --workers {workers}"))
        if outputs[1] != outputs[2]:
            bench.fail(k, "--workers 2 output differs from --workers 1")
    metrics["experiments.pool_speedup"] = (pool[1] / pool[2] if pool[2] else 0.0, "ratio")
    metrics["experiments.pool_workers1_s"] = (pool[1], "s")
    metrics["experiments.pool_workers2_s"] = (pool[2], "s")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.json"
    tracer.write(spans_path)
    return metrics, {"traced_requests": n, "overhead_requests": prefix,
                     "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="length of the timed phase (untraced runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--requests", type=int, default=None,
                   help="run exactly this many requests instead (smoke tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-reference", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        if args.setup_reference:
            return setup_reference()
        cli = load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from rowsynth import experiments, markov, optimal

    setup_s, import_s = measure_setup(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as scratch:
        wl = WORKLOADS[args.workload](args.seed, Path(scratch))
        bench = Bench(wl, Runner(cli, markov, optimal))
        if args.trace:
            metrics, info = traced(bench, args, import_s, (cli, experiments, optimal, markov))
        else:
            metrics, info = end_to_end(bench, args, setup_s)
        attempted, failed, messages = bench.tally()
    info.update(workload=args.workload, trace=args.trace, error_rate=failed / attempted,
                failures=messages[:20], provenance=provenance(args.seed))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
