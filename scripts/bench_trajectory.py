#!/usr/bin/env python3
"""Benchmark-trajectory gate: run the perf suite, record it, compare it.

Runs the three steady benchmarks —

  * micro_kernels (google-benchmark, JSON output, median of N repetitions)
  * host_throughput --poisson (streaming fabric; its --json metrics file)
  * net_loopback --pipeline (pipelined SUBMIT_BATCH submit path over real
    loopback TCP; its --json metrics file)

— merges them into one BENCH_results.json (the CI artifact, one point of
the performance trajectory), and compares it against the committed
baseline (bench/BENCH_baseline.json).

The streaming run gates on two numbers that move when the solver
regresses, even while the fabric keeps up with the offered rate:

  * mean_fista_iterations — FISTA iterations per window over the
    fixed-seed batch.  Deterministic, so it gates exact-or-lower: a
    stopping rule that stops firing fails it at once.
  * mean_operator_passes — operator passes per window over the same
    batch: FISTA iterations plus the lambda pass and, where debias runs,
    its setup pass and CG iterations (cs::kLambdaPasses).  Deterministic
    too, and gated exact-or-lower: a debias gate or CG stop that stops
    firing fails it even while the iteration count holds.
  * cpu_ms_per_window — process CPU per completed window, gated at
    --tolerance.  The invocation runs HOST_THROUGHPUT_ATTEMPTS times and
    the lowest CPU gates (host load only ever adds CPU); every attempt
    must be bit-exact and report the same iteration count.

Throughput is recorded but not gated: at an offered rate the fabric keeps
up with, it equals the offered rate.  The micro-kernel rates gate at the
looser --micro-tolerance because nanosecond-scale benches jitter 10-20%
run-to-run on shared runners even as medians of repetitions.  The run and
the baseline must list the same micro benches: one missing from either
side fails, so a new or renamed capture cannot run ungated.  Latency
and allocation metrics ride along informationally.

The net_loopback wire bytes gate exact-or-lower, like the iteration
counts: submit_bytes_per_window_v2 (the pipelined SUBMIT_BATCH frames)
and result_bytes_per_window_v2 (the same batch solved to convergence and
re-encoded one RESULT_BATCH per window).  Both are deterministic, so a
coding change that gives bytes back fails at once.

The net_loopback submit rate gates against the baseline at
--micro-tolerance.  Because it races the host scheduler on a shared-core
runner, the invocation runs NET_LOOPBACK_ATTEMPTS times and the best
attempt is what gates — but bit-exactness is never retried: one corrupt
attempt fails the whole run.

Only the standard library is used.  Typical invocations:

  python3 scripts/bench_trajectory.py --build-dir build          # gate
  python3 scripts/bench_trajectory.py --build-dir build \
      --write-baseline                                           # refresh

The tolerance can also be set via WBSN_BENCH_TOLERANCE (fraction, e.g.
0.10).  Baseline refreshes should come from the same class of machine
that gates — in CI, rerun the job with --write-baseline and commit the
result.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HOST_THROUGHPUT_ARGS = [
    "8", "48", "50", "--poisson", "400", "--threads", "2", "--shards", "2",
    "--pool",
]
HOST_THROUGHPUT_ATTEMPTS = 3
NET_LOOPBACK_ARGS = [
    "16", "24", "75", "--shards", "1", "--threads", "1",
    "--pipeline", "8", "--batch-frames", "16", "--repeat", "5",
]
NET_LOOPBACK_ATTEMPTS = 3
MICRO_REPETITIONS = 3


def run_micro(build_dir, repetitions):
    """micro_kernels -> {benchmark_name: items_per_second (median)}."""
    binary = os.path.join(build_dir, "bench", "micro_kernels")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    try:
        subprocess.run(
            [
                binary,
                f"--benchmark_repetitions={repetitions}",
                "--benchmark_report_aggregates_only=true",
                f"--benchmark_out={out_path}",
                "--benchmark_out_format=json",
            ],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        with open(out_path) as f:
            raw = json.load(f)
    finally:
        os.unlink(out_path)

    micro = {}
    for bench in raw.get("benchmarks", []):
        if bench.get("aggregate_name") != "median":
            continue
        name = bench["run_name"]
        entry = {"real_time_ns": bench.get("real_time")}
        if "items_per_second" in bench:
            entry["items_per_second"] = bench["items_per_second"]
        if "allocs_per_window" in bench:
            entry["allocs_per_window"] = bench["allocs_per_window"]
        micro[name] = entry
    if not micro:
        raise SystemExit("micro_kernels produced no median aggregates")
    return micro


def run_host_throughput(build_dir):
    """host_throughput --poisson --json -> the lowest-CPU attempt's metrics.

    Every attempt must be bit-exact and report the same deterministic
    iteration count; neither is retried.
    """
    binary = os.path.join(build_dir, "bench", "host_throughput")
    best = None
    for attempt in range(1, HOST_THROUGHPUT_ATTEMPTS + 1):
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            out_path = tmp.name
        try:
            proc = subprocess.run(
                [binary, *HOST_THROUGHPUT_ARGS, "--json", out_path],
                stdout=subprocess.DEVNULL,
            )
            if proc.returncode != 0:
                raise SystemExit(
                    f"host_throughput exited {proc.returncode} "
                    "(bit-exactness or argument failure)")
            with open(out_path) as f:
                metrics = json.load(f)
        finally:
            os.unlink(out_path)
        for key in ("mean_fista_iterations", "mean_operator_passes"):
            if best is not None and metrics.get(key) != best.get(key):
                raise SystemExit(
                    f"host_throughput: {key} differs between "
                    "attempts of a fixed-seed run (not retryable)")
        print(f"#   attempt {attempt}: "
              f"{metrics.get('cpu_ms_per_window', 0):.3f} cpu ms/window, "
              f"{metrics.get('mean_fista_iterations', 0):.2f} iterations")
        if best is None or (metrics.get("cpu_ms_per_window", 0)
                            < best.get("cpu_ms_per_window", 0)):
            best = metrics
    best["attempts"] = HOST_THROUGHPUT_ATTEMPTS
    return best


def run_net_loopback(build_dir):
    """net_loopback --pipeline --json -> best attempt's metrics object.

    The binary itself is best-of-N on the submit clock; this retries whole
    invocations because a shared-core runner can steal the CPU for an
    entire phase.  Every attempt must be bit-exact — correctness failures
    are not retried.
    """
    binary = os.path.join(build_dir, "bench", "net_loopback")
    best = None
    for attempt in range(1, NET_LOOPBACK_ATTEMPTS + 1):
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            out_path = tmp.name
        try:
            subprocess.run([binary, *NET_LOOPBACK_ARGS, "--json", out_path],
                           stdout=subprocess.DEVNULL)
            try:
                with open(out_path) as f:
                    metrics = json.load(f)
            except (OSError, json.JSONDecodeError):
                raise SystemExit("net_loopback produced no metrics JSON")
        finally:
            os.unlink(out_path)
        if metrics.get("bit_exact") != 1:
            raise SystemExit(
                "net_loopback: pipelined phase was not bit-exact against the "
                "serial reference (not retryable)")
        rate = metrics.get("v2_win_per_s", 0)
        if best is None or rate > best.get("v2_win_per_s", 0):
            best = metrics
        print(f"#   attempt {attempt}: {rate:.1f} win/s")
    best["attempts"] = attempt
    return best


def compare(results, baseline, tolerance, micro_tolerance):
    """Returns a list of failure strings (empty = gate passes)."""
    failures = []

    def check(label, new, old, floor_tolerance):
        if old is None or old <= 0 or new is None:
            return
        ratio = new / old
        line = f"{label}: {new:.1f} vs baseline {old:.1f} ({ratio:.2%})"
        if ratio < 1.0 - floor_tolerance:
            failures.append(line + f"  < {1.0 - floor_tolerance:.2%} floor")
        else:
            print(f"  ok    {line}")

    base_micro = baseline.get("micro", {})
    for name in sorted(set(results["micro"]) - set(base_micro)):
        failures.append(f"{name}: present in run, missing from baseline "
                        "(record it with --write-baseline)")
    for name, base_entry in sorted(base_micro.items()):
        new_entry = results["micro"].get(name)
        if new_entry is None:
            failures.append(f"{name}: present in baseline, missing from run")
            continue
        check(f"{name}/items_per_second",
              new_entry.get("items_per_second"),
              base_entry.get("items_per_second"),
              micro_tolerance)

    base_host = baseline.get("host_throughput_poisson", {})
    new_host = results.get("host_throughput_poisson", {})
    for key in ("mean_fista_iterations", "mean_operator_passes"):
        new_count = new_host.get(key)
        base_count = base_host.get(key)
        if new_count is None:
            failures.append(f"host_throughput: no {key} in run")
        elif base_count is not None:
            line = (f"host_throughput/{key}: {new_count:.2f} vs "
                    f"baseline {base_count:.2f}")
            if new_count > base_count:
                failures.append(line + "  (exact-or-lower)")
            else:
                print(f"  ok    {line}")
    new_cpu = new_host.get("cpu_ms_per_window")
    base_cpu = base_host.get("cpu_ms_per_window")
    if new_cpu is None:
        failures.append("host_throughput: no cpu_ms_per_window in run")
    elif base_cpu:
        line = (f"host_throughput/cpu_ms_per_window: {new_cpu:.3f} vs "
                f"baseline {base_cpu:.3f} ({new_cpu / base_cpu:.2%})")
        if new_cpu > base_cpu * (1.0 + tolerance):
            failures.append(line + f"  > {1.0 + tolerance:.2%} ceiling")
        else:
            print(f"  ok    {line}")

    if new_host.get("bit_exact") == 0:
        failures.append("host_throughput: bit-exactness check failed")

    base_net = baseline.get("net_loopback_pipeline", {})
    new_net = results.get("net_loopback_pipeline", {})
    for key in ("submit_bytes_per_window_v2", "result_bytes_per_window_v2"):
        new_bytes = new_net.get(key)
        base_bytes = base_net.get(key)
        if new_bytes is None:
            failures.append(f"net_loopback: no {key} in run")
        elif base_bytes is not None:
            line = (f"net_loopback/{key}: {new_bytes:.1f} vs "
                    f"baseline {base_bytes:.1f}")
            if new_bytes > base_bytes:
                failures.append(line + "  (exact-or-lower)")
            else:
                print(f"  ok    {line}")
    check("net_loopback/v2_win_per_s", new_net.get("v2_win_per_s"),
          base_net.get("v2_win_per_s"), micro_tolerance)
    if new_net.get("bit_exact") == 0:
        failures.append("net_loopback: bit-exactness check failed")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--output", default="BENCH_results.json")
    parser.add_argument("--baseline",
                        default=os.path.join("bench", "BENCH_baseline.json"))
    parser.add_argument("--write-baseline", action="store_true",
                        help="record this run as the committed baseline "
                             "instead of gating against it")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get("WBSN_BENCH_TOLERANCE",
                                                     "0.10")),
                        help="allowed fractional rise of the streaming "
                             "cpu_ms_per_window (default 0.10, env "
                             "WBSN_BENCH_TOLERANCE)")
    parser.add_argument("--micro-tolerance", type=float,
                        default=float(os.environ.get(
                            "WBSN_BENCH_MICRO_TOLERANCE", "0.30")),
                        help="allowed fractional micro-kernel rate drop "
                             "(default 0.30 — ns-scale benches jitter "
                             "hard on shared runners; env "
                             "WBSN_BENCH_MICRO_TOLERANCE)")
    parser.add_argument("--repetitions", type=int, default=MICRO_REPETITIONS)
    args = parser.parse_args()

    print(f"# micro_kernels ({args.repetitions} repetitions, median)")
    micro = run_micro(args.build_dir, args.repetitions)
    print(f"#   {len(micro)} benchmarks")
    print("# host_throughput " + " ".join(HOST_THROUGHPUT_ARGS))
    host = run_host_throughput(args.build_dir)
    print("# net_loopback " + " ".join(NET_LOOPBACK_ARGS))
    net = run_net_loopback(args.build_dir)

    results = {
        "schema": 1,
        "micro": micro,
        "host_throughput_poisson": host,
        "net_loopback_pipeline": net,
    }
    with open(args.output, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"# results -> {args.output}")

    if args.write_baseline:
        with open(args.baseline, "w") as f:
            json.dump(results, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"# baseline -> {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        raise SystemExit(f"no baseline at {args.baseline}; run with "
                         "--write-baseline once and commit it")
    with open(args.baseline) as f:
        baseline = json.load(f)

    print(f"# gate: streaming CPU ceiling {1.0 + args.tolerance:.2%}, "
          f"micro floor {1.0 - args.micro_tolerance:.2%} of baseline")
    failures = compare(results, baseline, args.tolerance,
                       args.micro_tolerance)
    if failures:
        print("\nbench-trajectory REGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  FAIL  {failure}", file=sys.stderr)
        return 1
    print("bench-trajectory: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
