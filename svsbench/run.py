#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

Usage, from the root of the repository:

    python3 svsbench/run.py --workload kv_burst --seed 1 --seconds 10 --trace 0
    python3 svsbench/run.py --workload all --seed 1 --seconds 10
    python3 svsbench/run.py --selftest

The first call configures and builds svsbench/ (a CMake package that
compiles the library from src/ in Release) into .bench_build/svsbench; later
calls only rebuild what changed.  A run prints its metrics and, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics; the metrics' names and units are checked against
BENCHMARK.json.  --workload all runs the three workloads one after the other
and prints one object mapping each workload to its result.
--selftest runs the negative tests of the correctness checks.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "svsbench")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("kv_burst", "udp_group", "crash_n512")
RUN_TIMEOUT_S = 170


def fail(message):
    print("svsbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "node.hpp")):
        fail("no library sources under %s; run from a checkout of the "
             "repository" % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: the last line of stdout is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def declared_metrics(trace):
    """The metrics BENCHMARK.json declares for the mode, as (name, unit)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
        return [(m["name"], m["unit"])
                for m in spec["per_layer" if trace else "end_to_end"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read the declared metrics from %s: %s" % (path, e))


def conform(workload, result, declared, trace):
    """Puts the measured metrics in declared order.  A declared end-to-end
    metric the run did not measure, a unit other than the declared one, or
    an undeclared metric is a fault of the benchmark.  A per-layer metric
    of a layer the workload does not exercise reads 0."""
    got = result["metrics"]
    names = {name for name, _ in declared}
    for name in got:
        if name not in names:
            fail("%s reports metric %s, which BENCHMARK.json does not declare"
                 % (workload, name))
    metrics = {}
    for name, unit in declared:
        if name not in got:
            if not trace:
                fail("%s did not measure %s" % (workload, name))
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if got[name]["unit"] != unit:
            fail("%s reports %s in %s, declared in %s"
                 % (workload, name, got[name]["unit"], unit))
        metrics[name] = got[name]
    return dict(result, metrics=metrics)


def run_one(workload, seed, seconds, trace):
    command = [os.path.join(BUILD, "svsbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", OUT]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail("%s exited with code %d" % (workload, done.returncode))
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in [1, 120]")

    declared = declared_metrics(args.trace)
    build()
    if args.selftest:
        test = os.path.join(BUILD, "svsbench_checks_test")
        sys.exit(subprocess.run([test], cwd=ROOT, check=False).returncode)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        report, result = run_one(workload, args.seed, args.seconds, args.trace)
        print("\n".join(report))
        results[workload] = conform(workload, result, declared, args.trace)
    os.makedirs(OUT, exist_ok=True)
    name = "result_%s_seed%d_trace%d.json" % (args.workload, args.seed,
                                              args.trace)
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(results, f, indent=1)
    print(json.dumps(results[args.workload] if args.workload != "all"
                     else results))


if __name__ == "__main__":
    main()
