#!/usr/bin/env python3
"""Build the fleet benchmark from source and run one workload.

    python3 fleetbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

Configures and builds fleetbench/ (which compiles the repository's src/
layers) into .bench_build/fleetbench at the repository root, then runs the
driver.  The driver prints a human-readable table on stderr and, as the
last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics.  Traced runs (--trace 1) also write their spans and
per-window stage times to .bench_out/.  Extra arguments (--patients N,
--corrupt-result, --stall-generator) are passed through to the driver.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "fleetbench"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "fleetbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    if not build():
        print("fleetbench: build failed", file=sys.stderr)
        return 2
    cmd = [
        str(BUILD / "fleetbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(ROOT / ".bench_out"),
    ] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"fleetbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout.decode())
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
