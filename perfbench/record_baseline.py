#!/usr/bin/env python3
"""Run every workload over several seeds and record the figures.

    python3 perfbench/record_baseline.py [--runs N] [--sets K]
                                         [--first-seed S] [--out FILE]

Run from the repository root. Each workload runs K sets (default 2) of N
runs (default 10) at BENCHMARK.json's run_seconds, untraced, back to back;
set k uses seeds S + k*N, ..., S + k*N + N - 1 (S defaults to 1). One
traced run at seed S follows. Writes, per workload, end-to-end metric and
set, the values, their median and quartiles, and the spread (interquartile
distance over the median, as statistics.quantiles(values, n=4) gives
them), next to each metric's bound, and each later set's median change
against the first; per-layer metrics are recorded from the traced run.
Prints a one-line summary per workload, metric and set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=1000, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stderr[-3000:]}")
    stamp = next((json.loads(line[len("# provenance "):]) for line in lines
                  if line.startswith("# provenance ")), {})
    return stamp, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        entry = {"failed": 0, "attempted": 0, "end_to_end": {}}
        for k in range(args.sets):
            seeds = [args.first_seed + k * args.runs + i
                     for i in range(args.runs)]
            values = {}
            for seed in seeds:
                stamp, result = run(workload, seed, spec["run_seconds"], 0)
                record.setdefault("provenance", stamp)
                entry["failed"] += result["failed"]
                entry["attempted"] += result["attempted"]
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            for name, series in values.items():
                q1, median, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median
                metric = entry["end_to_end"].setdefault(name, {
                    "unit": bounds[name]["unit"],
                    "bound": bounds[name]["bound"], "sets": []})
                metric["sets"].append({
                    "seeds": seeds, "median": median, "q1": q1, "q3": q3,
                    "spread": spread, "values": series})
                change = median / metric["sets"][0]["median"] - 1
                if k > 0:
                    metric.setdefault("median_change", []).append(change)
                print(f"{workload} {name} set {k + 1}: median {median:.6g} "
                      f"{bounds[name]['unit']} spread {spread:.3f}"
                      + (f" change {change:+.3f}" if k > 0 else "")
                      + f" (bound {bounds[name]['bound']})", flush=True)
        _, traced = run(workload, args.first_seed, spec["run_seconds"], 1)
        entry["per_layer"] = {name: [metric["value"], metric["unit"]]
                              for name, metric in traced["metrics"].items()}
        entry["traced_correct"] = traced["correct"]
        record["workloads"][workload] = entry
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
