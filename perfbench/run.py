"""Benchmark command: one workload, timed or traced, checked, one JSON line.

    python3 perfbench/run.py --workload corpus_census --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Set-up (``inputs.py``) runs in a child
process, several times, and ``setup_s`` is the median build time. The timed
run then repeats whole rounds of the workload's items until ``--seconds``
have passed (at least ``MIN_ROUNDS`` rounds) and reports medians.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``wall_s`` (one
round, first call into the program to last return), ``item_p50_ms`` (the
median over the items of each item's median time over the rounds) and
``peak_rss_mb`` (peak resident memory of this process, which does no
set-up). ``--trace 1`` instead alternates an untraced and a traced round,
both serial, at least ``MIN_TRACED_PAIRS`` times, and prints the per-layer
metrics of ``layers.METRICS`` as medians over the traced rounds. The last
line of standard output is the result; problems found by the checks go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workdirs  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2
SETUP_REPEAT = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def set_up(workload: str, seed: int, out: Path, repeat: int,
           scale: str = "full") -> float:
    """Build the inputs in a child process; median build time in seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out), "--repeat", str(repeat),
         "--scale", scale],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: set-up failed with status {proc.returncode}")
    return statistics.median(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def timed_run(bench, seconds: float) -> dict:
    rounds = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        rounds.append(bench.run_round(len(rounds)))
    # Every round times the same items in the same order: take each item's
    # median over the rounds, then the median over the items.
    per_item = [statistics.median(times) for times in zip(*(r.item_s for r in rounds))]
    return {
        "rounds": rounds,
        "metrics": {
            "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
            "item_p50_ms": (statistics.median(per_item) * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        },
    }


def traced_run(bench, seconds: float) -> dict:
    import layers
    bench.workers = 1
    trace = layers.LayerTrace()
    rounds, per_round = [], []
    started = time.perf_counter()
    while len(per_round) < MIN_TRACED_PAIRS or time.perf_counter() - started < seconds:
        plain = bench.run_round(len(rounds))
        with trace:
            traced = bench.run_round(len(rounds) + 1, trace)
        rounds += [plain, traced]
        figures = trace.take()
        figures["trace.wall_s"] = traced.wall_s
        figures["trace.untraced_wall_s"] = plain.wall_s
        per_round.append(figures)
    return {
        "rounds": rounds,
        "metrics": {name: (statistics.median(f[name] for f in per_round), unit)
                    for name, unit in layers.METRICS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    inputs.import_program()

    work = workdirs.open_run(inputs.ROOT / ".perfbench_work", args.workload)
    try:
        setup_dir = workdirs.new_tree(work, "setup")
        setup_s = set_up(args.workload, args.seed, setup_dir,
                         1 if args.trace else SETUP_REPEAT, args.scale)
        bench = workloads.make(args.workload, setup_dir / "inputs",
                               work, nproc())
        if args.trace:
            result = traced_run(bench, args.seconds)
        else:
            result = timed_run(bench, args.seconds)
            result["metrics"]["setup_s"] = (setup_s, "s")
    finally:
        workdirs.close_run(work)

    rounds = result["rounds"]
    print("round wall s: " + " ".join(f"{r.wall_s:.3f}" for r in rounds),
          file=sys.stderr)
    for r in rounds:
        for problem in r.problems:
            print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": not any(r.problems for r in rounds),
        "attempted": sum(len(r.item_s) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
