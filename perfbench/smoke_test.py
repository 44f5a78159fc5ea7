#!/usr/bin/env python3
"""Smoke test for the end-to-end benchmark, at reduced length.

    python3 perfbench/smoke_test.py

Run from the repository root. Checks that:
  - every workload prints, as its last stdout line, the result object with
    exactly the contract's keys, answers correctly, and emits every
    end-to-end metric (--trace 0) or every per-layer metric (--trace 1)
    named in BENCHMARK.json, each with its unit;
  - every oracle can fail: with one reference deliberately corrupted
    (--corrupt), the run reports correct=false and failed > 0;
  - in a directory holding only BENCHMARK.json and the benchmark's files,
    the benchmark exits non-zero without printing a result.
Takes a few minutes: fleet_pipeline sets up with a full fleet pass.
Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SECONDS = "1"
# Each oracle, by the workload that owns it.
CORRUPTIONS = {
    "audit_cold": ["audit-ref", "cli", "naive"],
    "fleet_pipeline": ["fleet-ref", "serial"],
    "daemon_mix": ["hit-ref", "miss-ref"],
    "sim_flap": ["sim-ref", "sim-match"],
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_run(spec, workload, trace):
    label = f"{workload} --trace {trace}"
    done = bench("--workload", workload, "--seed", "1", "--seconds", SECONDS,
                 "--trace", str(trace))
    result = result_of(done)
    check(result is not None, f"{label}: result line printed")
    if result is None:
        sys.stderr.write(done.stderr[-3000:])
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, f"{label}: correct")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    check(set(got) == {m["name"] for m in wanted},
          f"{label}: metric names {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for metric in wanted:
        entry = got.get(metric["name"], {})
        check(entry.get("unit") == metric["unit"]
              and isinstance(entry.get("value"), (int, float)),
              f"{label}: {metric['name']} in {metric['unit']}")


def check_oracle(workload, oracle):
    done = bench("--workload", workload, "--seed", "1", "--seconds", SECONDS,
                 "--trace", "0", "--corrupt", oracle)
    result = result_of(done)
    check(result is not None and result["correct"] is False
          and result["failed"] > 0,
          f"{workload}: oracle '{oracle}' fails on a corrupted reference")


def check_bare_directory(spec):
    bare = os.path.join(ROOT, ".bench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    done = bench("--workload", spec["workloads"][0]["name"], "--seed", "1",
                 "--seconds", SECONDS, "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and result_of(done) is None
          and not done.stdout.strip(),
          "bare directory: non-zero exit, no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_bare_directory(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
        for oracle in CORRUPTIONS.get(workload, []):
            check_oracle(workload, oracle)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
