#!/usr/bin/env python3
"""Summarize benchmark result lines: per metric, the median, the
quartiles and the spread (IQR / median), as the acceptance rule reads
them.

    python3 benchmark/spread.py runs.jsonl            # one run set
    python3 benchmark/spread.py base.jsonl head.jsonl # two commits

Each input file holds the last stdout line of each run (one JSON object
per line), all of one workload. With two files, every metric's median
shift is printed as a share of the first file's median, signed so that
a positive share is a regression for that metric's direction; compare
it against the bound the metric has in BENCHMARK.json.
"""
import json
import statistics
import sys


def load(path):
    runs = [json.loads(line) for line in open(path) if line.strip()]
    metrics = {}
    for run in runs:
        if not run["correct"] or run["failed"]:
            print(f"{path}: a run failed its output check: {run}")
        for name, m in run["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return runs, metrics


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    bench = json.load(open("BENCHMARK.json"))
    better = {m["name"]: m.get("better", "lower") for m in bench["end_to_end"] + bench["per_layer"]}
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = [load(p) for p in sys.argv[1:]]
    base = sets[0][1]
    for name in base:
        med, q1, q3, spread = summary(base[name])
        line = f"{name:32s} n={len(base[name]):2d} median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.3f}"
        if name in bound:
            line += f" bound={bound[name]}"
        if len(sets) > 1 and name in sets[1][1]:
            med2 = summary(sets[1][1][name])[0]
            shift = (med2 - med) / med if med else float("inf")
            worse = shift if better.get(name) == "lower" else -shift
            line += f" | head median={med2:.6g} worse_by={worse:+.3f}"
        print(line)


if __name__ == "__main__":
    main()
