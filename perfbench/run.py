#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <interactive|static_learn|serve> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the library and the perfbench program from source (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs one workload. Build output and the human-readable metric
table go to stderr; the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Exits nonzero when the build
fails, an output check fails, or the run does not finish in time.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("interactive", "static_learn", "serve")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the program; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "run")
    os.makedirs(out_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", out_dir]
    with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT,
                          text=True) as child:
        try:
            stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.exit("perfbench: no result object (exit code %d)" % child.returncode)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if child.returncode != 0 or not result["correct"]:
        sys.exit(child.returncode or 1)


if __name__ == "__main__":
    main()
