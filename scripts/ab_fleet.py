#!/usr/bin/env python3
"""A/B two fleetbench binaries in alternating pairs and compare every metric.

    python3 scripts/ab_fleet.py --parent A/fleetbench --change B/fleetbench \\
        --workload steady --seed 7 --seconds 20 --pairs 10 --out ab-steady

Runs N pairs.  Pair i runs the parent first when i is even and the change
first when i is odd, so a drift in host load lands on both sides.  Every
run's stdout (its JSON line) and stderr (its table and any FAIL: lines) are
kept in --out as pairNN-parent.{json,stderr} and pairNN-change.{json,stderr};
a traced run (--trace 1) writes its spans under --out too.

For each metric both sides report, in BENCHMARK.json order, it prints the
parent's median with its quartiles, the change's median with its quartiles,
the ratio of the medians, and in how many pairs the change was better (the
direction comes from BENCHMARK.json; "=" counts exact ties).  It then prints
each side's median generator-lag p99 of the untraced pass, read from the
kept stderr line "# untraced pass: gen_lag p99 ... ms", so a run refused for
generator lag (host load) can be told apart from a program fault.

Exits 1 and prints the FAIL: lines from the kept stderr when any run is not
"correct", has failed windows, exits non-zero or prints no JSON line;
exits 2 on a usage error.  Stdlib only.
"""
import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300
GEN_LAG_RE = re.compile(r"^# untraced pass: gen_lag p99 ([0-9.]+) ms", re.MULTILINE)


def directions():
    """Metric name -> "lower"/"higher", in BENCHMARK.json order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {row["name"]: row["better"] for row in bench["end_to_end"] + bench["per_layer"]}


def quartiles(values):
    """(q1, median, q3); the quartiles equal the median below 2 values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def gen_lag_ms(stderr_text):
    """The untraced pass's generator-lag p99 from a run's stderr, or None."""
    match = GEN_LAG_RE.search(stderr_text)
    return float(match.group(1)) if match else None


def run_one(binary, args, out, stem):
    """Runs one fleetbench; returns (result dict or None, list of problems,
    untraced generator-lag p99 in ms or None)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out / (stem + "-trace"))]
    stderr_path = out / (stem + ".stderr")
    with open(stderr_path, "wb") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  timeout=RUN_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return None, [f"{stem}: ran past {RUN_TIMEOUT_S} s"], None
    text = stderr_path.read_text(errors="replace")
    lag = gen_lag_ms(text)
    stdout = proc.stdout.decode(errors="replace")
    (out / (stem + ".json")).write_text(stdout)
    problems = []
    if proc.returncode != 0:
        problems.append(f"{stem}: exit {proc.returncode}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        return None, problems + [f"{stem}: no JSON result line"], lag
    if result.get("correct") is not True:
        problems.append(f"{stem}: correct = {result.get('correct')}")
    if result.get("failed", 0) != 0:
        problems.append(f"{stem}: {result.get('failed')} failed windows")
    if problems:
        problems += [f"{stem}: {line[len('FAIL:'):].strip()}"
                     for line in text.splitlines() if line.startswith("FAIL:")]
    return result, problems, lag


def report_lag(lags):
    """Prints each side's median untraced generator-lag p99 over its runs."""
    cols = []
    for label in ("parent", "change"):
        values = [v for v in lags[label] if v is not None]
        if values:
            q1, med, q3 = quartiles(values)
            cols.append(f"{label} {med:.6g} [{q1:.6g}, {q3:.6g}] ms ({len(values)} runs)")
        else:
            cols.append(f"{label} -")
    print("# gen_lag p99, untraced pass (stderr): " + "; ".join(cols))


def report(pairs, better):
    """Prints one row per BENCHMARK.json metric that every run reports."""
    common = set.intersection(*(set(r["metrics"]) for p in pairs for r in p))
    names = [n for n in better if n in common]
    print(f"{'metric':<36} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} "
          f"{'ratio':>7}  change better")
    for name in names:
        base = [p[0]["metrics"][name]["value"] for p in pairs]
        new = [p[1]["metrics"][name]["value"] for p in pairs]
        bq1, bmed, bq3 = quartiles(base)
        nq1, nmed, nq3 = quartiles(new)
        ratio = f"{nmed / bmed:.4f}" if bmed != 0 else "-"
        ties = sum(1 for b, n in zip(base, new) if b == n)
        if better[name] == "lower":
            wins = sum(1 for b, n in zip(base, new) if n < b)
        else:
            wins = sum(1 for b, n in zip(base, new) if n > b)
        won = f"{wins}/{len(pairs)}"
        if ties:
            won += f" ={ties}"
        base_col = f"{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]"
        new_col = f"{nmed:.6g} [{nq1:.6g}, {nq3:.6g}]"
        print(f"{name:<36} {base_col:<36} {new_col:<36} {ratio:>7}  {won}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path,
                        help="the baseline fleetbench binary")
    parser.add_argument("--change", required=True, type=pathlib.Path,
                        help="the fleetbench binary under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True, type=pathlib.Path,
                        help="directory for every run's stdout and stderr")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for binary in (args.parent, args.change):
        if not binary.is_file():
            parser.error(f"no such binary: {binary}")
    args.out.mkdir(parents=True, exist_ok=True)
    better = directions()

    pairs, problems = [], []
    lags = {"parent": [], "change": []}
    for i in range(args.pairs):
        sides = [("parent", args.parent), ("change", args.change)]
        if i % 2 == 1:
            sides.reverse()
        results = {}
        for label, binary in sides:
            result, bad, lag = run_one(binary.resolve(), args, args.out, f"pair{i:02d}-{label}")
            problems += bad
            lags[label].append(lag)
            results[label] = result
            print(f"pair {i}: {label} done" + (f" ({'; '.join(bad)})" if bad else ""),
                  file=sys.stderr, flush=True)
        if results["parent"] is not None and results["change"] is not None:
            pairs.append((results["parent"], results["change"]))

    print(f"# ab_fleet {args.workload} seed {args.seed}, {args.seconds:g} s, trace "
          f"{args.trace}, {len(pairs)} pairs (alternating order); runs kept in {args.out}")
    if pairs:
        report(pairs, better)
    report_lag(lags)
    for line in problems:
        print(f"FAIL: {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
