#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (a CMake package that compiles the library from src/) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, as a Release
build; later calls only rebuild what changed. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. The exit code is
the benchmark's; it is non-zero, with no result printed, when the library
sources are missing or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark itself stops measuring after --seconds (at most 120 s);
# this only bounds a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: build step timed out: %s" % " ".join(cmd),
              file=sys.stderr)
        return False
    return done.returncode == 0


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.hpp")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    return run_quiet(["cmake", "--build", out, "--target", "perfbench",
                      "-j", jobs], BUILD_TIMEOUT_S)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec.get(key, [])]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 2
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        partial = e.stdout or b""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        sys.stderr.write(partial)
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = done.stdout.splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        return done.returncode

    # The binary and BENCHMARK.json must name the same metrics.
    names = expected_metrics(args.trace == 1)
    if names is not None and lines:
        printed = list(json.loads(lines[-1])["metrics"].keys())
        if printed != names:
            print("perfbench: metrics differ from BENCHMARK.json: %s vs %s"
                  % (printed, names), file=sys.stderr)
            return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
