#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles ../src
unchanged) into $CARGO_TARGET_DIR or .bench_build, then runs one workload
and relays its output. The last stdout line is the result JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Exits non-zero, without a result line, when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Run a build step; its output goes to stderr so stdout stays clean."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt here; run from the repository root")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", build_dir, "-j", "4"], BUILD_TIMEOUT_S)


def git(*args):
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-1 over the program and benchmark sources: identifies the code
    even where the checkout is not a git repository."""
    digest = hashlib.sha1()
    for top in ("src", "examples", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def main():
    build_dir = os.path.join(ROOT,
                             os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    build(build_dir)
    env = dict(os.environ)
    commit = git("rev-parse", "HEAD")
    env["PERFBENCH_COMMIT"] = commit or "unknown"
    status = git("status", "--porcelain") if commit else None
    env["PERFBENCH_DIRTY"] = ("unknown" if status is None
                              else "true" if status else "false")
    env["PERFBENCH_SOURCE_SHA1"] = source_digest()
    driver = os.path.join(build_dir, "perfbench_driver")
    try:
        done = subprocess.run([driver, *sys.argv[1:]], env=env,
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"driver exited {done.returncode}")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
