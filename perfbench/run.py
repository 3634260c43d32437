#!/usr/bin/env python3
"""Build and run the perfbench harness; validate and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload suite_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check        # every workload once, both modes
    python3 perfbench/run.py --write-reference   # regenerate perfbench/reference

The harness is built from the repository's sources into .bench_build
(configured on first use). With --trace 0 the last stdout line carries
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones; their names and units are checked against BENCHMARK.json before
the line is printed. Any build or harness failure exits non-zero without
printing a result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO_ROOT, ".bench_build")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
# A run must end within 180 s; leave room for the build check.
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build the harness; quiet unless it fails."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at %s/src" % REPO_ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def archs_of(spec):
    """The architectures the benchmark measures: its replay.<arch>.ms."""
    return [m["name"].split(".")[1] for m in spec["per_layer"]
            if m["name"].startswith("replay.") and m["name"].endswith(".ms")]


def run_harness(spec, workload, seed, seconds, trace):
    """Run one measurement; return (passthrough lines, result dict)."""
    scratch = os.path.join(BUILD_DIR, "scratch-%d" % os.getpid())
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference-dir", os.path.join(BENCH_DIR, "reference"),
           "--scratch-dir", scratch, "--archs", ",".join(archs_of(spec))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("harness exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")
    return lines[:-1], result


def validate(spec, result, trace):
    """Names, units and value types must match BENCHMARK.json exactly."""
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing or extra:
        return "metric names differ: missing %s, extra %s" % (missing, extra)
    for name, unit in want.items():
        value = got[name].get("value")
        if got[name].get("unit") != unit:
            return "%s: unit %r, expected %r" % (name, got[name].get("unit"),
                                                  unit)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "%s: value %r is not a finite number" % (name, value)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    return None


def measure(spec, args):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, names))
    build()
    lines, result = run_harness(spec, args.workload, args.seed, args.seconds,
                                args.trace)
    for line in lines:
        print(line)
    problem = validate(spec, result, args.trace)
    if problem:
        fail(problem)
    print(json.dumps(result))
    return 0


def self_check(spec):
    """Every workload once in both modes; names and units validated."""
    build()
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            _, result = run_harness(spec, w["name"], 1, 1, trace)
            problem = validate(spec, result, trace)
            good = problem is None and result["correct"]
            ok = ok and good
            print("%-14s trace=%d %s%s" % (
                w["name"], trace, "ok" if good else "FAIL",
                "" if good else ": " + (problem or "outputs not correct")))
    print("self-check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args()

    spec = load_spec()
    if args.self_check:
        return self_check(spec)
    if args.write_reference:
        build()
        return subprocess.run([HARNESS, "--write-reference",
                               os.path.join(BENCH_DIR, "reference")]).returncode
    if not args.workload:
        p.error("--workload is required")
    return measure(spec, args)


if __name__ == "__main__":
    sys.exit(main())
