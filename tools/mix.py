"""Time one benchmark workload's requests in-process for two checkouts, round by round.

Each round starts one child process per checkout, in turn, and the side
that goes first alternates from round to round. A child imports its own
checkout's perfbench/run.py and perfbench/workloads.py, and through them
that checkout's src/rowsynth, without writing bytecode into the checkout.
It runs the workload's first cycle once untimed, then the first k request
cycles timed, each request as perfbench times it (seconds inside the
program). Over all rounds, a side's time for a request kind is the median
of its requests of that kind, and its ops per second is the ops of one
round over the sum of those medians, one per request. Medians per kind
from interleaved rounds cancel the drift of a shared host, which moves
absolute times far more than a change under test does.

    python tools/mix.py BASE CHANGE --workload chain-rotations --cycles 20 --rounds 9

BASE and CHANGE are checkout roots. The last line of output is one JSON
object: per kind the two median seconds, and the two ops-per-second figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def child(checkout: Path, workload: str, cycles: int, seed: int) -> int:
    """Run and time the requests of one side; print [kind, seconds, ops, failures] per request."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(checkout / "perfbench"))
    import run  # the checkout's harness: its program loader, Runner and workloads

    cli = run.load_program()
    from rowsynth import markov, optimal

    runner = run.Runner(cli, markov, optimal)
    with tempfile.TemporaryDirectory(prefix="mix-") as scratch:
        wl = run.WORKLOADS[workload](seed, Path(scratch))
        for k in range(wl.cycle):
            wl.run(k, runner)
        rows = []
        for k in range(cycles * wl.cycle):
            outcome = wl.run(k, runner)
            rows.append([repr(wl.kind(k)), outcome.seconds, outcome.ops, outcome.failures])
    print(json.dumps(rows))
    return 0


def run_side(checkout: Path, args) -> list:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child",
                           str(checkout), "--workload", args.workload, "--cycles",
                           str(args.cycles), "--seed", str(args.seed)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, nargs="?")
    p.add_argument("change", type=Path, nargs="?")
    p.add_argument("--workload", required=True)
    p.add_argument("--cycles", type=int, default=1, help="timed request cycles per round")
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        return child(args.child.resolve(), args.workload, args.cycles, args.seed)
    if args.change is None:
        p.error("give two checkouts, BASE and CHANGE")

    sides = (args.base.resolve(), args.change.resolve())
    times: list[dict[str, list[float]]] = [{}, {}]
    requests: list = []
    failures = 0
    for r in range(args.rounds):
        for s in ((0, 1) if r % 2 == 0 else (1, 0)):
            rows = run_side(sides[s], args)
            requests = rows
            for kind, seconds, _, failed in rows:
                times[s].setdefault(kind, []).append(seconds)
                for msg in failed:
                    failures += 1
                    print(f"mix: {sides[s]}: {kind}: {msg}", file=sys.stderr)
    medians = [{kind: statistics.median(t) for kind, t in side.items()} for side in times]
    ops = sum(n for _, _, n, _ in requests)
    ops_per_s = [ops / sum(m[kind] for kind, *_ in requests) for m in medians]
    print(f"{'kind':<16} {'base ms':>10} {'change ms':>10} {'change/base':>12}")
    for kind in medians[0]:
        base, change = medians[0][kind], medians[1][kind]
        print(f"{kind:<16} {1e3 * base:>10.4f} {1e3 * change:>10.4f} {change / base:>12.3f}")
    print(f"{'ops/s':<16} {ops_per_s[0]:>10.1f} {ops_per_s[1]:>10.1f} "
          f"{ops_per_s[1] / ops_per_s[0]:>12.3f}")
    print(json.dumps({"workload": args.workload, "rounds": args.rounds, "cycles": args.cycles,
                      "kinds": {kind: [medians[0][kind], medians[1][kind]] for kind in medians[0]},
                      "ops_per_s": ops_per_s}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
