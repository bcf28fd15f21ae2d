#!/usr/bin/env python3
"""End-to-end MHFL run benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload cv-width-fleet --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds the library and the runner from source (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload in its own process, checks that the printed metric names and
units are exactly those BENCHMARK.json lists, and passes the runner's
output through.  The last stdout line is the result JSON.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.relpath(os.path.join(BUILD_ROOT, "perfbench-work"), ROOT)
EXE = os.path.join(BUILD_DIR, "perfbench_e2e")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "perfbench_e2e"],
    ]
    for cmd in steps:
        # Build output goes to stderr so stdout stays the benchmark's own.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def run_bench(args, timeout=RUN_TIMEOUT_S):
    try:
        proc = subprocess.run([EXE, "--work-dir", WORK_DIR] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"runner timed out after {timeout} s")
    return proc.returncode, proc.stdout


def check_metrics(result, expected):
    """The printed metrics must be exactly `expected`, with their units."""
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    problems = [f"missing {n}" for n in want if n not in got]
    problems += [f"unlisted {n}" for n in got if n not in want]
    problems += [f"{n}: unit {got[n]!r} != {want[n]!r}"
                 for n in want if n in got and got[n] != want[n]]
    return problems


def benchmark(args):
    build()
    bench = spec()
    code, out = run_bench(["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)])
    if code != 0:
        die(f"runner exited with {code}")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("runner printed no result line")
    problems = check_metrics(
        result, bench["per_layer"] if args.trace else bench["end_to_end"])
    if problems:
        die("metrics differ from BENCHMARK.json: " + "; ".join(problems))
    sys.stdout.write(out)


def self_test():
    build()
    bench = spec()
    failures = []
    # Fingerprints at 1 and 4 threads and proxy vs bare algorithm.
    code, out = run_bench(["--self-test"], timeout=600)
    sys.stdout.write(out)
    if code != 0:
        failures.append("runner self-test failed")
    # Each workload's `why` states its round count and accuracy floor.
    code, out = run_bench(["--describe"])
    table = {w["name"]: w for w in json.loads(out)}
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(table):
        failures.append(f"workloads {names} != runner's {sorted(table)}")
    for w in bench["workloads"]:
        d = table.get(w["name"])
        if d is None:
            continue
        if not re.search(rf"\b{d['rounds']} rounds\b", w["why"]):
            failures.append(f"{w['name']}: why does not state {d['rounds']} rounds")
        if f"final_acc floor {d['acc_floor']:g}" not in w["why"]:
            failures.append(f"{w['name']}: why does not state final_acc floor "
                            f"{d['acc_floor']:g}")
    # The metric printer emits every BENCHMARK.json name with its unit.
    for name in names:
        for trace in (0, 1):
            code, out = run_bench(["--workload", name, "--seed", "1",
                                    "--seconds", "0", "--trace", str(trace),
                                    "--short"])
            result = json.loads(out.rstrip("\n").split("\n")[-1])
            problems = check_metrics(
                result, bench["per_layer"] if trace else bench["end_to_end"])
            if code != 0 or not result["correct"] or problems:
                failures.append(f"{name} trace {trace}: exit {code}, correct "
                                f"{result['correct']}, {problems}")
            else:
                print(f"selftest {name} trace {trace}: "
                      f"{len(result['metrics'])} metrics match BENCHMARK.json")
    for f in failures:
        print(f"selftest FAIL: {f}")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.workload:
        p.error("--workload is required")
    benchmark(args)


if __name__ == "__main__":
    main()
