#!/usr/bin/env python3
"""Run the benchmark in two checkouts as alternating pairs and summarize.

    python3 scripts/bench_pairs.py --parent OLD --change NEW \\
        --workload bigapps_inject --seeds 41-46,71-74 --seconds 15 --topic io

For each seed, ``perfbench/run.py --workload W --seed S --seconds N`` runs
once in each checkout (each from its own directory, so each imports its own
``src``); the side that runs first alternates from pair to pair. The last
line of each run's standard output is its result. ``--trace-seed`` adds one
``--trace 1`` run per side.

The summary goes into ``BENCH_<topic>.json`` in the current directory,
under ``workloads.<W>``; other workloads already in that file are kept. For every
end-to-end metric that ``BENCHMARK.json`` of the change declares, it holds
each side's runs, median and quartiles, how many pairs the change won and
lost, whether the change's median is within the metric's bound of the
parent's, and whether the gain rule holds: the change wins at least nine in
ten pairs and its median is better than the parent's by more than the
parent's quartile spread.

Absolute times do not carry from one set of pairs to the next, so the summary
also holds a calibration, taken before and after the pairs: the seconds
that a fixed pure-Python loop, a fixed small numpy reduction and a fixed
file create/unlink loop in the change's checkout take. A reader scales one
file's numbers against another's by these.
"""
import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def parse_seeds(text):
    """``41-46,71-74`` -> [41, ..., 46, 71, ..., 74]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds, trace=0):
    """One benchmark run in ``checkout``; its result line as a dict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"bench_pairs: run in {checkout} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def short_sha(checkout):
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def calibrate(directory, python_loops=1_000_000, numpy_loops=20_000, files=2000):
    """Seconds of three fixed loops: ``python_loops`` additions in pure
    Python, ``numpy_loops`` sums of a 1024-element array, and ``files``
    files each created and unlinked in a new folder under ``directory``."""
    start = time.perf_counter()
    total = 0
    for i in range(python_loops):
        total += i
    python_s = time.perf_counter() - start

    values = np.arange(1024.0)
    start = time.perf_counter()
    for _ in range(numpy_loops):
        values.sum()
    numpy_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix=".bench_calibration-",
                                     dir=directory) as folder:
        start = time.perf_counter()
        for i in range(files):
            path = os.path.join(folder, str(i))
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.unlink(path)
        files_s = time.perf_counter() - start
    return {"python_loop_s": python_s, "numpy_sum_s": numpy_s,
            "file_create_unlink_s": files_s,
            "counts": {"python_loops": python_loops, "numpy_loops": numpy_loops,
                       "files": files}}


def spread(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def summarize(metric, runs):
    """Per-side figures, pair wins and the bound and gain rules of one
    ``BENCHMARK.json`` metric, from each side's runs in pair order."""
    parent, change = spread(runs["parent"]), spread(runs["change"])
    bound = metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    # gain > 0 means the change is better.
    gains = [sign * (p - c) for p, c in zip(runs["parent"], runs["change"])]
    wins = sum(g > 0 for g in gains)
    iqr = parent["q3"] - parent["q1"]
    median_gain = sign * (parent["median"] - change["median"])
    return {
        "unit": metric["unit"],
        "bound": bound,
        "better": metric["better"],
        "parent": parent,
        "change": change,
        "parent_iqr": iqr,
        "median_ratio": (change["median"] / parent["median"]
                         if parent["median"] else None),
        "change_wins": wins,
        "change_losses": sum(g < 0 for g in gains),
        "within_bound": -median_gain <= bound * abs(parent["median"]),
        "gain_rule_met": (wins >= math.ceil(0.9 * len(gains))
                          and median_gain > iqr),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        metavar="A-B[,C-D]", help="one pair per seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-seed", type=int,
                        help="also run one traced pass per side with this seed")
    parser.add_argument("--topic", required=True,
                        help="the summary goes to BENCH_<topic>.json here")
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent, "change": args.change}
    results = {side: [] for side in SIDES}
    first = []
    calibration = {"before": calibrate(args.change)}
    for number, seed in enumerate(args.seeds):
        order = SIDES if number % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            result = run_once(checkouts[side], args.workload, seed, args.seconds)
            results[side].append(result)
            shown = " ".join(f"{name}={m['value']:.4g}"
                             for name, m in result["metrics"].items())
            print(f"seed {seed} {side}: {shown}", file=sys.stderr)
    calibration["after"] = calibrate(args.change)

    metrics = {}
    for metric in declared["end_to_end"]:
        name = metric["name"]
        if all(name in r["metrics"] for side in SIDES for r in results[side]):
            runs = {side: [r["metrics"][name]["value"] for r in results[side]]
                    for side in SIDES}
            metrics[name] = summarize(metric, runs)
    summary = {
        "pairs": len(args.seeds),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "first": first,
        "correct": {side: [r["correct"] for r in results[side]] for side in SIDES},
        "failed": {side: [r["failed"] for r in results[side]] for side in SIDES},
        "metrics": metrics,
        "calibration": calibration,
    }
    if args.trace_seed is not None:
        summary["traced"] = {
            side: run_once(checkouts[side], args.workload, args.trace_seed,
                           args.seconds, trace=1)
            for side in SIDES}

    out = Path(f"BENCH_{args.topic}.json")
    document = json.loads(out.read_text()) if out.exists() else {"topic": args.topic}
    document.update({
        "parent_sha": short_sha(args.parent) or document.get("parent_sha"),
        "change_sha": short_sha(args.change) or document.get("change_sha"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    })
    document.setdefault("workloads", {})[args.workload] = summary
    out.write_text(json.dumps(document, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload} {name}: parent {m['parent']['median']:.4g} "
              f"change {m['change']['median']:.4g} {m['unit']} "
              f"(iqr {m['parent_iqr']:.3g}), change won {m['change_wins']}/"
              f"{len(args.seeds)}, within bound: {m['within_bound']}, "
              f"gain rule: {m['gain_rule_met']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
