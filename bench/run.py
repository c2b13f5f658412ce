"""Benchmark of the pebbling toolkit: times public calls from outside.

    python3 bench/run.py --workload decide-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

One run builds the workload's inputs from the seed, then runs whole rounds
of its operations (closed loop, one caller, ``--jobs 1``) until another
round would end past ``--seconds``; every run makes at least one round.
After each round every answer is checked (see ``checks.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one round
plain and one round with the per-layer wrappers of ``tracing.py`` installed
and prints the per-layer metrics plus ``trace.overhead_s``, the traced
round's wall time minus the plain one's.  The last line of standard output
is one JSON object; results and traces are also written under ``bench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("decide-mix", "certify")
SETUP_RUNS = 9

# Run in a fresh interpreter per set-up sample: read the graph specs, then
# time importing pebbling and building every graph of the workload.
SETUP_CHILD = """
import json, sys, time
specs = json.loads(sys.stdin.read())
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pebbling
if sys.argv[2] == "1":
    import pebbling.cli
built = [pebbling.make_family(s) if isinstance(s, str)
         else pebbling.Graph(s[0], tuple(map(tuple, s[1]))) for s in specs]
print(time.perf_counter() - start)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_samples(workload, count: int) -> list[float]:
    specs = json.dumps(workload.graph_specs)
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), "1" if workload.uses_cli else "0"],
            input=specs, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout))
    return samples


class Round:
    """One timed pass over every operation, then (untimed) its checks."""

    def __init__(self, ops):
        self.ops = ops
        self.times: list[float] = []
        self.answers = []
        self.failed = 0
        self.wrong: list[str] = []
        clock = time.perf_counter
        start = clock()
        for op in ops:
            t0 = clock()
            try:
                answer = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                answer = exc
            self.times.append(clock() - t0)
            self.answers.append(answer)
        self.wall = clock() - start

    def check(self) -> "Round":
        """Check every answer; the checks may call the program, so run
        them with the tracer uninstalled."""
        for op, answer in zip(self.ops, self.answers):
            if isinstance(answer, Exception):
                self.failed += 1
                print(f"failed: {op.label}: {type(answer).__name__}: {answer}", file=sys.stderr)
                continue
            try:
                op.check(answer)
            except Exception as exc:
                self.wrong.append(f"{op.label}: {exc}")
                print(f"WRONG: {op.label}: {exc}", file=sys.stderr)
        self.answers = None
        return self


def end_to_end(workload, seconds: float) -> tuple[list[Round], dict]:
    # Set-up samples are taken before and after the rounds, so that their
    # median, like the rounds, spans the whole run rather than one moment
    # of a CPU whose speed drifts.
    setup = setup_samples(workload, SETUP_RUNS // 2)
    rounds = [Round(workload.ops).check()]
    while sum(r.wall for r in rounds) + rounds[-1].wall <= seconds:
        rounds.append(Round(workload.ops).check())
    setup += setup_samples(workload, SETUP_RUNS - len(setup))
    times = sorted(t for r in rounds for t in r.times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "ops_per_s": (len(times) / sum(r.wall for r in rounds), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        # Nearest rank; below 100 operations per run it is the slowest one.
        "op_p99_ms": (times[math.ceil(0.99 * len(times)) - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return rounds, metrics


def traced(workload) -> tuple[list[Round], dict, dict]:
    import tracing

    plain = Round(workload.ops).check()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with_trace = Round(workload.ops)
    finally:
        tracer.uninstall()
    with_trace.check()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (with_trace.wall - plain.wall, "s")
    trace = {
        "plain_wall_s": plain.wall,
        "traced_wall_s": with_trace.wall,
        "layers": {name: value for name, (value, _) in metrics.items()},
    }
    return [plain, with_trace], metrics, trace


def run_one(args) -> int:
    if not (SRC / "pebbling" / "__init__.py").is_file():
        print(f"error: no pebbling sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pebbling

    if Path(pebbling.__file__).resolve().parent != SRC / "pebbling":
        print(f"error: imported pebbling from {pebbling.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        rounds, metrics, trace = traced(workload)
    else:
        rounds, metrics = end_to_end(workload, args.seconds)
        trace = None
    result = {
        "correct": not any(r.wrong for r in rounds),
        "attempted": sum(len(r.times) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>10} {name:<32} {value:>14.6g} {unit}")
    print(f"{args.workload:>10} rounds {len(rounds)}, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, op_seconds=[[op.label] + [r.times[i] for r in rounds]
                                      for i, op in enumerate(workload.ops)])
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or done.returncode
        results[name] = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
