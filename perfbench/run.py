#!/usr/bin/env python3
"""Builds and runs the pulp-hd benchmark (see perfbench/README.md).

Run from the root of the repository:

    python3 perfbench/run.py --workload <serve-emg25|wire-uds-emg5|batch-am64> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` Cargo package (a workspace of its own, depending
on the repository's crates by path) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs it, and passes its
output through. The last line of standard output is the run's JSON
result, and its metrics must be exactly those `BENCHMARK.json` declares
for the run's trace level. On any failure -- the build, the run, or a
malformed or incomplete result -- nothing is printed to standard output
and the exit code is non-zero.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("serve-emg25", "wire-uds-emg5", "batch-am64")
# A run is planned for --seconds plus a few seconds of data generation,
# training and set-up; anything near this is a hang.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    try:
        declared = json.loads(BENCHMARK.read_text())
        expected = {m["name"] for m in
                    declared["per_layer" if args.trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the declared metrics from {BENCHMARK}: {e!r}")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        fail("build failed")

    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(target / "perfbench"),
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"run exited with code {run.returncode}")

    lines = run.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        sys.stderr.write(run.stdout)
        fail(f"last line is not a JSON result: {e}")
    if set(result) != RESULT_KEYS:
        sys.stderr.write(run.stdout)
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")
    # Kernel rows of a SIMD level the CPU lacks are absent, not zero.
    missing = {m for m in expected - set(result["metrics"])
               if not m.endswith(".avx2.ns")}
    undeclared = set(result["metrics"]) - expected
    if missing or undeclared:
        sys.stderr.write(run.stdout)
        fail(f"metrics missing {sorted(missing)}, undeclared {sorted(undeclared)}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
