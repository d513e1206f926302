#!/usr/bin/env python3
"""Builds and runs the exploration-session benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Builds perfbench/ (and the ExploreDB library from src/) into .bench_build/
with CMake, then runs the benchmark binary. Build output goes to stderr; the
binary's stdout passes through, ending with one JSON result line. Traced runs
also write their spans to .bench_out/<workload>.trace.json.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion; on timeout the child is killed and reaped."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs).returncode
    except subprocess.TimeoutExpired:
        print(f"timed out after {timeout}s: {' '.join(cmd)}", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    build = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]
    for cmd in (configure, build):
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            print("benchmark build failed", file=sys.stderr)
            return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(".bench_out", exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(".bench_out", f"{args.workload}.trace.json")]
    sys.stdout.flush()
    return run(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
