#!/usr/bin/env python3
"""Steadiness audit: runs each workload once per seed and reports, for every
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median, as statistics.quantiles(values, n=4) gives them)
next to the metric's bound in BENCHMARK.json.

Usage, from the root of a checkout:

    python3 perfbench/audit.py --seeds 1-10 [--workloads ingest,train]

Runs are sequential; each one is `perfbench/run.py` with the spec's
run_seconds. Prints one line per run, then one table per workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(command, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: failed (exit %d)\n%s" %
                      (workload, seed, proc.returncode, proc.stderr[-2000:]))
                continue
            metrics = json.loads(lines[-1])["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (name, metrics[name]["value"]) for name in bounds)),
                flush=True)
        print("\n| %s | median | q1 | q3 | spread | bound |" % workload)
        print("|---|---:|---:|---:|---:|---:|")
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median if median else 0.0
            print("| %s | %.6g | %.6g | %.6g | %.3f | %.2f |" %
                  (name, median, q1, q3, spread, bounds[name]))
        print(flush=True)


if __name__ == "__main__":
    main()
