#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_read --seed 1 --trace 0
    python3 perfbench/run.py --self-test

The build goes to .bench_build/perfbench (CMake, Release). Build output goes
to stderr, so the last line on stdout is the benchmark's JSON result.

BENCHMARK.json is the one list of metric names and units. The binary reports
what it measured; this script keeps the metrics BENCHMARK.json lists for the
run's mode (end_to_end, or per_layer with --trace 1) and fails if an
end-to-end metric is missing, a unit disagrees, or the binary reports a
metric the list does not name. A per-layer metric the workload does not
reach (a layer off its path) reads 0.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve_read", "serve_write", "serve_scan", "tiered_disk")
JOBS = "3"


def build(target):
    """Configures once, then builds `target`; exits non-zero on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", JOBS])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def select(measured, listed, zero_if_missing):
    """Returns the `listed` metrics out of `measured`, in list order."""
    out = {}
    for spec in listed:
        name = spec["name"]
        got = measured.pop(name, None)
        if got is None:
            if not zero_if_missing:
                sys.exit("perfbench: metric %s not measured" % name)
            got = {"value": 0.0, "unit": spec["unit"]}
        if got["unit"] != spec["unit"]:
            sys.exit("perfbench: %s measured in %s, BENCHMARK.json says %s" %
                     (name, got["unit"], spec["unit"]))
        out[name] = got
    if measured:
        sys.exit("perfbench: metrics not in BENCHMARK.json: " +
                 ", ".join(sorted(measured)))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the answer-oracle test")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(subprocess.run([build("oracle_test")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or float(spec["run_seconds"])
    binary = build("perfbench")
    done = subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", repr(seconds),
                           "--trace", args.trace],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        sys.exit("perfbench: no result line (exit code %d)" % done.returncode)
    trace = args.trace == "1"
    result["metrics"] = select(result["metrics"],
                               spec["per_layer" if trace else "end_to_end"],
                               zero_if_missing=trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
