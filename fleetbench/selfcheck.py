#!/usr/bin/env python3
"""Tiny-scale self-check of the fleet benchmark.

    python3 fleetbench/selfcheck.py

Runs every workload named in BENCHMARK.json for a short run with four
patients, untraced and traced, and checks that each run passes and emits
exactly the metrics BENCHMARK.json lists, each with its unit.  Then runs
one workload with a deliberately corrupted result and one with a stalled
generator, and checks that the bit-exactness check and the generator-lag
check trip: non-zero exit, "correct": false, and a named failure.  Exits
non-zero when any check fails.
"""
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1.5", "--trace", str(trace), "--patients", "4", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in spec["workloads"]:
            label = f"{workload['name']} --trace {trace}"
            proc, result = run(workload["name"], trace)
            if proc.returncode != 0 or result is None or result["correct"] is not True:
                problems.append(f"{label}: run failed (exit {proc.returncode})\n"
                                f"{proc.stderr[-1500:]}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                problems.append(f"{label}: missing {missing}, unexpected {extra}, "
                                f"wrong unit {units}")
                continue
            print(f"ok   {label}: {len(got)} metrics with units")

    for flag, failure, what in (("--corrupt-result", "bit-exactness", "a corrupted result"),
                                ("--stall-generator", "invalid run", "a stalled generator")):
        proc, result = run("steady", 0, flag)
        if (proc.returncode == 0 or result is None or result["correct"] is not False
                or failure not in proc.stderr):
            problems.append(f"{what} did not trip the {failure!r} check")
        else:
            print(f"ok   {what} trips the {failure!r} check")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
