#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload of BENCHMARK.json N times at its run_seconds, with
seeds 1..N, and prints the median and quartiles of every end-to-end metric
with its spread (interquartile distance over the median) next to the bound
BENCHMARK.json fixes. Compares two saved sets of runs against the same
bounds: the medians of the two sets may differ, in either direction, by at
most the bound.

    python3 perfbench/steady.py --runs 10 --out .bench_build/set-a.json
    python3 perfbench/steady.py --runs 10 --out .bench_build/set-b.json
    python3 perfbench/steady.py --compare .bench_build/set-a.json .bench_build/set-b.json

Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d): %s" % (workload, seed,
                                                  done.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("wrong answers (%s seed %d): %s" % (workload, seed, lines[-1]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(spec, runs):
    """Prints median/quartiles/spread per metric; returns False if a spread
    exceeds its bound."""
    ok = True
    for workload, rows in runs.items():
        print("\n%s (%d runs)" % (workload, len(rows)))
        print("  %-20s %14s %14s %14s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [row[name] for row in rows]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > metric["bound"]:
                flag = "  OVER BOUND"
                ok = False
            elif spread > metric["bound"] / 3:
                flag = "  over a third of the bound"
            print("  %-20s %14.6g %14.6g %14.6g %8.4f %6.3f%s" %
                  (name, q1, med, q3, spread, metric["bound"], flag))
    return ok


def compare(spec, first, second):
    """The two sets' medians may differ by at most the bound, as a share of
    the smaller one, metric by metric and workload by workload. The check
    is symmetric: a second set much faster than the first fails too, since
    it means the two sets did not measure the same thing."""
    ok = True
    for workload in first:
        if workload not in second:
            continue
        print("\n%s" % workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = statistics.median(row[name] for row in first[workload])
            b = statistics.median(row[name] for row in second[workload])
            worse = (b - a) if metric["better"] == "lower" else (a - b)
            apart = abs(b - a) / min(a, b)
            verdict = "ok" if apart <= metric["bound"] else "OVER BOUND"
            if verdict != "ok":
                ok = False
            print("  %-20s %14.6g -> %14.6g  %s by %6.2f%% (bound %4.1f%%)"
                  "  %s" % (name, a, b, "worse " if worse > 0 else "better",
                            100 * apart, 100 * metric["bound"], verdict))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="save the runs as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        ok = report(spec, sets[0]) & report(spec, sets[1])
        ok &= compare(spec, sets[0], sets[1])
        sys.exit(0 if ok else 1)
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = []
        for seed in range(1, args.runs + 1):
            runs[workload].append(run_once(spec, workload, seed))
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    sys.exit(0 if report(spec, runs) else 1)


if __name__ == "__main__":
    main()
