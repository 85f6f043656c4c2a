// fleetbench — sensor-to-client benchmark of the reconstruction fleet.
//
// One run drives the real pipeline end to end: node CS encode (cs) and its
// energy model (energy, dsp op counts) -> pipelined wbsn-wire v2 submits
// from one single-threaded RoutingClient (net) -> in-process ShardServers
// over loopback TCP -> engine queue and FISTA/kern solve (host, cs, kern)
// -> poll back to the client.  Inputs come from the seed only; every
// completed window is checked bit for bit against a serial reference and
// the fleet's counters must conserve every window.
//
//   fleetbench --workload steady --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the fixed-rate phase for --seconds and prints the
// end-to-end metrics; --trace 1 runs that untraced pass and then a traced
// one on the same inputs, followed by the capacity probe, and prints the
// per-layer metrics plus each end-to-end metric's tracing overhead.  The last line of
// standard output is one JSON object; a human-readable table goes to
// standard error.  Exit code 0 only when every check passed.
#include <algorithm>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "metrics.hpp"
#include "session.hpp"

namespace {

using namespace fleetbench;

constexpr int kSetupRepeats = 45;
/// Capacity probe length in a traced pass, as a share of --seconds.
constexpr double kCapacityShare = 0.5;
/// A run whose generator started windows later than this at p99 is invalid.
/// The bound is in client ticks, the generator's own scale: one tick of lag
/// is normal, and single poll() calls stalled by a busy host reached 22 ms.
constexpr double kLagBoundMs =
    25.0 * std::chrono::duration<double, std::milli>(kPollInterval).count();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t patients = 32;
  bool corrupt_result = false;
  bool stall_generator = false;
  std::string out_dir = ".bench_out";
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-result") {
      args.corrupt_result = true;
      continue;
    }
    if (arg == "--stall-generator") {
      args.stall_generator = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value);
    } else if (arg == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (arg == "--patients") {
      args.patients = static_cast<std::size_t>(std::max(1, std::atoi(value)));
    } else if (arg == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0;
}

struct Pass {
  std::vector<std::string> failures;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

Pass run_pass(const Workload& w, const Inputs& in, const Args& args, bool traced) {
  SessionOptions opts;
  opts.seed = args.seed;
  opts.traced = traced;
  opts.corrupt_result = args.corrupt_result;
  opts.stall_generator = args.stall_generator;
  Session session(w, in, opts);
  Pass pass;
  const auto setup_times = session.setup(kSetupRepeats);
  if (session.failures().empty()) {
    session.run_fixed_rate(args.seconds);
    if (traced) session.run_capacity(kCapacityShare * args.seconds);
    session.run_idle_reshards();
    session.finish();
  }
  pass.failures = session.failures();
  const double lag = gen_lag_p99_ms(session);
  std::fprintf(stderr, "# %s pass: gen_lag p99 %.3f ms (bound %.1f ms)\n",
               traced ? "traced" : "untraced", lag, kLagBoundMs);
  if (lag > kLagBoundMs) {
    pass.failures.push_back("invalid run: generator fell behind, gen_lag p99 " +
                            std::to_string(lag) + " ms > bound " + std::to_string(kLagBoundMs) +
                            " ms");
  }
  for (const auto& rec : session.records()) {
    if (rec.phase == Phase::kWarmup) continue;
    ++pass.attempted;
    pass.failed += rec.state == State::kFailed;
  }
  pass.e2e = end_to_end_metrics(w, in, session, setup_times);
  if (traced) {
    pass.layers = layer_metrics(w, in, session);
    std::filesystem::create_directories(args.out_dir);
    const std::string prefix =
        args.out_dir + "/" + w.name + "-seed" + std::to_string(args.seed);
    if (!write_trace_files(session, prefix)) {
      pass.failures.push_back("trace: cannot write " + prefix + ".*.tsv");
    }
  }
  return pass;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "\n%s\n", title);
  for (const auto& m : metrics) {
    std::fprintf(stderr, "  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--patients N] [--out-dir DIR] [--corrupt-result] [--stall-generator]\n");
    return 2;
  }
  const auto workload = find_workload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;

  Inputs inputs;
  if (const auto error = make_inputs(w, args.seed, args.patients, inputs); !error.empty()) {
    std::fprintf(stderr, "FAIL: %s\n", error.c_str());
    return 1;
  }
  solve_reference(inputs, engine_config(w));
  std::fprintf(stderr,
               "# fleetbench %s seed %llu: %zu patients, %zu windows (%zu urgent), n=%zu m=%zu, "
               "%zu shard%s x %d worker, %.0f win/s fixed rate, %.1f s measured%s\n",
               w.name, static_cast<unsigned long long>(args.seed), args.patients,
               inputs.sources.size(), inputs.urgent, w.window_samples, inputs.phi->rows(),
               w.shards, w.shards == 1 ? "" : "s", w.workers, w.rate_hz, args.seconds,
               args.trace ? " (untraced + traced passes)" : "");

  Pass untraced = run_pass(w, inputs, args, false);
  print_table("end-to-end (untraced)", untraced.e2e);
  std::vector<std::string> failures = untraced.failures;
  const Pass* reported = &untraced;
  std::vector<Metric> output = untraced.e2e;

  Pass traced;
  if (args.trace && failures.empty()) {
    traced = run_pass(w, inputs, args, true);
    failures.insert(failures.end(), traced.failures.begin(), traced.failures.end());
    output = traced.layers;
    // Tracing overhead: how far each end-to-end metric moved under tracing.
    for (std::size_t i = 0; i < traced.e2e.size(); ++i) {
      const double base = untraced.e2e[i].value;
      output.push_back({"trace.overhead." + traced.e2e[i].name,
                        base != 0.0 ? (traced.e2e[i].value - base) / std::abs(base) : 0.0,
                        "frac"});
    }
    reported = &traced;
    print_table("per-layer (traced)", output);
  }

  for (const auto& failure : failures) std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
  if (failures.empty()) std::fprintf(stderr, "\nall checks passed\n");
  print_json(failures.empty(), reported->attempted, reported->failed, output);
  return failures.empty() ? 0 : 1;
}
