#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload suite_cold --runs 10 [--first-seed 1]

Runs the benchmark once per seed (seeds first-seed .. first-seed+runs-1)
and prints, for each end-to-end metric, the median, the quartiles from
statistics.quantiles(values, n=4), and the interquartile distance as a
share of the median next to the metric's bound from BENCHMARK.json. A
spread above a third of the bound is flagged: two sets of runs of the
same code would then risk disagreeing by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("run with seed %d failed" % seed)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        if not result["correct"]:
            sys.exit("run with seed %d: outputs not correct" % seed)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)

    print("\n%-12s %14s %14s %14s %8s %8s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
        print("%-12s %14.6g %14.6g %14.6g %7.2f%% %7.0f%%%s" % (
            m["name"], med, q1, q3, 100 * spread, 100 * m["bound"], flag))


if __name__ == "__main__":
    main()
