// Host-side reconstruction throughput, two modes:
//
//  * Batch sweep (default): records/second versus worker-thread count for
//    a multi-patient batch, plus a bit-exactness check of every threaded
//    run against the serial reference.
//  * Streaming (--poisson RATE_HZ): drives the sharded fabric's
//    submit/poll interface with Poisson arrivals at RATE_HZ
//    windows/second — the live-fleet shape — and reports the aggregate
//    SLO statistics (p50/p95/p99 enqueue->complete latency, throughput,
//    in-flight depth, deadline violations, shed/rejected windows), a
//    per-lane (urgent vs routine) split, per-shard and per-patient
//    breakdowns, plus the same bit-exactness check.
//
// Usage: host_throughput [patients] [beats_per_patient] [cr_percent]
//                        [--poisson RATE_HZ] [--threads N] [--deadline-ms D]
//                        [--shards S] [--priority-frac F]
//                        [--shed] [--reshard-at K:S ...]
//                        [--pool] [--json FILE]
//
// --shards S partitions the fleet across S engine shards by patient_id
// (threads is the per-shard worker count).  --priority-frac F tags that
// fraction of windows urgent: they jump the backlog through the priority
// lane.  --shed enables deadline-aware shedding (at capacity, drop the
// queued window predicted to miss its deadline instead of bouncing the
// arrival).  --reshard-at K:S (repeatable) live-resizes the fabric to S
// shards after the K-th submission attempt — the elasticity drill: the
// stream keeps flowing while the consistent-hash ring re-routes only the
// moved patients, and the bit-exactness gate still applies to every
// window solved before, during, and after each resize.
//
// --pool routes every window payload through a shared PayloadPool
// (payload_pool.hpp): the producer checks buffer shells out of the pool,
// the engine recycles them after each solve, and the poll loop returns
// result-signal buffers — the zero-allocation steady-state configuration
// (alloc_smoke is the strict gate; here the process-wide heap counter is
// reported per window when the build has -DWBSN_ALLOC_COUNTER=ON).
// --json FILE additionally writes the streaming metrics as a flat JSON
// object for the bench-trajectory trend gate.
//
// In streaming mode the per-window deadline defaults to the real-time
// window period (cs::window_period_ms): the decoder keeps up with live
// traffic iff every window finishes before the patient's next one lands.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cs/fista.hpp"
#include "cs/pipeline.hpp"
#include "host/alloc_meter.hpp"
#include "host/payload_pool.hpp"
#include "host/reconstruction_fabric.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace {

using namespace wbsn;
using Clock = std::chrono::steady_clock;

std::vector<host::CompressedWindow> make_fleet_batch(int patients,
                                                     int beats_per_patient,
                                                     double cr_percent) {
  std::vector<host::CompressedWindow> batch;
  for (int p = 0; p < patients; ++p) {
    sig::SynthConfig synth;
    synth.num_leads = 1;
    synth.episodes = {{p % 4 == 3 ? sig::RhythmEpisode::Kind::kAfib
                                  : sig::RhythmEpisode::Kind::kSinus,
                       beats_per_patient}};
    synth.noise = sig::NoiseParams::preset(sig::NoiseLevel::kModerate);
    synth.record_name = "patient-" + std::to_string(p);
    sig::Rng rng(0x5EED0000ULL + static_cast<std::uint64_t>(p));
    const auto record = synthesize_ecg(synth, rng);

    host::RecordCompressionConfig compression;
    compression.cr_percent = cr_percent;
    auto windows = host::compress_record(record, static_cast<std::uint32_t>(p),
                                         compression);
    batch.insert(batch.end(), std::make_move_iterator(windows.begin()),
                 std::make_move_iterator(windows.end()));
  }
  return batch;
}

bool identical_signals(const host::BatchResult& a, const host::BatchResult& b) {
  if (a.windows.size() != b.windows.size()) return false;
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    const auto& x = a.windows[i].signal;
    const auto& y = b.windows[i].signal;
    if (x.size() != y.size()) return false;
    if (!x.empty() &&
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

int run_batch_sweep(const std::vector<host::CompressedWindow>& batch) {
  // threads = worker-thread count; the submitting thread also helps drain,
  // so threads=0 is the fully serial reference execution.
  const int thread_sweep[] = {0, 1, 2, 4, 8};

  host::BatchResult serial;
  double serial_rps = 0.0;
  bool all_identical = true;

  std::printf("%-8s %-12s %-12s %-10s %-10s\n", "threads", "records/s",
              "wall_s", "speedup", "mean_snr");
  for (const int threads : thread_sweep) {
    host::EngineConfig cfg;
    cfg.threads = threads;
    host::ReconstructionEngine engine(cfg);
    auto result = engine.reconstruct(batch);

    double snr_acc = 0.0;
    for (const auto& p : result.patients) snr_acc += p.mean_snr_db;
    const double mean_snr =
        result.patients.empty()
            ? 0.0
            : snr_acc / static_cast<double>(result.patients.size());

    if (threads == 0) {
      serial_rps = result.records_per_second;
      serial = std::move(result);
      std::printf("%-8s %-12.1f %-12.3f %-10s %-10.2f\n", "serial",
                  serial_rps, serial.wall_seconds, "1.00x", mean_snr);
    } else {
      const bool same = identical_signals(serial, result);
      all_identical = all_identical && same;
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    result.records_per_second / serial_rps);
      std::printf("%-8d %-12.1f %-12.3f %-10s %-10.2f%s\n", threads,
                  result.records_per_second, result.wall_seconds, speedup,
                  mean_snr, same ? "" : "  [MISMATCH vs serial]");
    }
  }

  std::printf("\nbit-exactness vs serial: %s\n",
              all_identical ? "PASS" : "FAIL");
  return all_identical ? 0 : 1;
}

/// Operator passes per window (cs::kLambdaPasses: FISTA iterations plus
/// the lambda, debias-setup and debias CG passes) over the whole batch,
/// re-solved serially with the engine's solver config: deterministic, like
/// the iteration count, so it gates exact-or-lower.
double mean_operator_passes(const std::vector<host::CompressedWindow>& batch,
                            const cs::FistaConfig& fista) {
  std::map<std::pair<std::uint64_t, std::size_t>, cs::SensingMatrix> matrices;
  cs::FistaWorkspace ws;
  std::vector<double> signal;
  double passes_sum = 0.0;
  for (const auto& window : batch) {
    const auto key = std::make_pair(window.matrix_seed, window.measurements.size());
    auto found = matrices.find(key);
    if (found == matrices.end()) {
      sig::Rng rng(window.matrix_seed);
      auto phi = cs::SensingMatrix::make_sparse_binary(
          window.measurements.size(), window.window_samples, window.ones_per_column, rng);
      found = matrices.emplace(key, std::move(phi)).first;
    }
    signal.resize(window.window_samples);
    int passes = 0;
    cs::fista_solve_into(found->second, window.measurements, fista, ws, signal, &passes);
    passes_sum += passes;
  }
  return batch.empty() ? 0.0 : passes_sum / static_cast<double>(batch.size());
}

int run_streaming(std::vector<host::CompressedWindow> batch, double rate_hz,
                  int threads, double deadline_ms, int shards, double priority_frac,
                  bool shed_enabled, std::vector<std::pair<std::size_t, int>> reshards,
                  bool pooled, const std::string& json_path) {
  // Serial batch reference for the bit-exactness check.
  host::EngineConfig serial_cfg;
  host::ReconstructionEngine serial(serial_cfg);
  const auto reference = serial.reconstruct(batch);

  // Tag a deterministic fraction of the traffic urgent: the AF-alarm
  // pathway's share of the fleet.
  sig::Rng rng(0xA551A55ULL);
  std::size_t urgent_count = 0;
  for (auto& window : batch) {
    if (rng.uniform() < priority_frac) {
      window.priority = cs::WindowPriority::kUrgent;
      ++urgent_count;
    }
  }

  // Deterministically shuffled arrival order: patients interleave.
  std::vector<std::size_t> order(batch.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
  }

  host::FabricConfig cfg;
  cfg.shards = shards;
  cfg.engine.threads = threads;
  cfg.engine.slo.deadline_ms = deadline_ms;
  cfg.engine.deadline_shedding = shed_enabled;
  std::shared_ptr<host::PayloadPool> pool;
  if (pooled) {
    pool = std::make_shared<host::PayloadPool>();
    cfg.engine.payload_pool = pool;
  }
  host::ReconstructionFabric fabric(cfg);

  std::printf("streaming: %zu windows (%zu urgent), Poisson %.1f/s, %d shard%s x "
              "%d worker thread%s, deadline %.1f ms%s%s\n",
              batch.size(), urgent_count, rate_hz, shards, shards == 1 ? "" : "s",
              threads, threads == 1 ? "" : "s", deadline_ms,
              shed_enabled ? ", deadline shedding" : "",
              pooled ? ", pooled payloads" : "");

  std::sort(reshards.begin(), reshards.end());

  // Producer-side copy of one template window; with --pool the shell and
  // both payload buffers come from (and eventually return to) the pool.
  const auto make_copy = [&](const host::CompressedWindow& src) {
    if (!pool) return src;
    host::CompressedWindow window = pool->acquire_window();
    window.patient_id = src.patient_id;
    window.window_index = src.window_index;
    window.matrix_seed = src.matrix_seed;
    window.window_samples = src.window_samples;
    window.ones_per_column = src.ones_per_column;
    window.priority = src.priority;
    window.measurements.assign(src.measurements.begin(), src.measurements.end());
    window.reference.assign(src.reference.begin(), src.reference.end());
    return window;
  };

  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<double>> streamed;
  const auto record_result = [&](host::WindowResult&& result) {
    // The harness keeps a copy for the bit-exactness audit; the pooled
    // buffer itself goes straight back into circulation.
    streamed.emplace(std::make_pair(result.patient_id, result.window_index),
                     pool ? std::vector<double>(result.signal)
                          : std::move(result.signal));
    if (pool) pool->recycle(std::move(result));
  };

  const std::uint64_t allocs_at_start = host::alloc_count();
  const std::clock_t cpu0 = std::clock();
  const auto t0 = Clock::now();
  double next_arrival_s = 0.0;
  std::size_t submitted = 0;
  std::size_t next_reshard = 0;
  for (const std::size_t i : order) {
    while (next_reshard < reshards.size() && submitted >= reshards[next_reshard].first) {
      const auto resize_t0 = Clock::now();
      const auto report = fabric.resize(reshards[next_reshard].second);
      const double resize_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - resize_t0).count();
      std::printf("reshard @%zu: epoch %u, %zu -> %zu shards, moved %zu/%zu patients "
                  "(%zu SLO handoffs), retired %zu, %.2f ms\n",
                  submitted, report.epoch, report.shards_before, report.shards_after,
                  report.moved_patients, report.known_patients, report.slo_handoffs,
                  report.retired_shards, resize_ms);
      ++next_reshard;
    }
    ++submitted;
    // Exponential inter-arrival times make the submissions Poisson.
    next_arrival_s += -std::log(1.0 - rng.uniform()) / rate_hz;
    const auto arrival = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(next_arrival_s));
    while (Clock::now() < arrival) {
      if (auto result = fabric.poll()) {
        record_result(std::move(*result));
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    host::CompressedWindow copy = make_copy(batch[i]);
    // Overload drops the window; the engine counts it in snap.rejected.
    (void)fabric.try_submit(std::move(copy));
  }
  for (auto&& result : fabric.drain()) {
    record_result(std::move(result));
  }
  const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  const double cpu_s = static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC;
  const std::uint64_t allocs_streaming = host::alloc_count() - allocs_at_start;

  const auto snap = fabric.slo_snapshot();
  const auto shed_total = static_cast<std::size_t>(snap.shed_routine + snap.shed_urgent);
  // Process CPU (producer, poll loop and every worker) per completed
  // window: unlike throughput, it moves when a solve gets dearer even
  // while the fabric keeps up with the offered rate.
  const double cpu_ms_per_window =
      snap.completed > 0 ? 1e3 * cpu_s / static_cast<double>(snap.completed) : 0.0;
  // FISTA iterations per window over the whole fixed-seed batch, from the
  // serial reference (every streamed window is checked bit-identical to
  // it below): a deterministic count, so a stopping-rule regression shows
  // exactly, whatever the host load and however many windows were shed.
  double iterations_sum = 0.0;
  for (const auto& window : reference.windows) iterations_sum += window.iterations;
  const double mean_fista_iterations =
      iterations_sum / static_cast<double>(reference.windows.size());
  const double mean_passes = mean_operator_passes(batch, serial_cfg.fista);
  std::printf("\n%-24s %12s\n", "metric", "value");
  std::printf("%-24s %12zu\n", "windows submitted", static_cast<std::size_t>(snap.submitted));
  std::printf("%-24s %12zu\n", "windows completed", static_cast<std::size_t>(snap.completed));
  std::printf("%-24s %12zu\n", "windows rejected", static_cast<std::size_t>(snap.rejected));
  std::printf("%-24s %12zu\n", "windows shed (routine)",
              static_cast<std::size_t>(snap.shed_routine));
  std::printf("%-24s %12zu\n", "windows shed (urgent)",
              static_cast<std::size_t>(snap.shed_urgent));
  std::printf("%-24s %12.1f\n", "throughput (win/s)", snap.throughput_per_s);
  std::printf("%-24s %12.2f\n", "latency p50 (ms)", snap.p50_ms);
  std::printf("%-24s %12.2f\n", "latency p95 (ms)", snap.p95_ms);
  std::printf("%-24s %12.2f\n", "latency p99 (ms)", snap.p99_ms);
  std::printf("%-24s %12.2f\n", "latency max (ms)", snap.max_ms);
  std::printf("%-24s %12.2f\n", "latency mean (ms)", snap.mean_ms);
  std::printf("%-24s %12zu\n", "deadline violations",
              static_cast<std::size_t>(snap.deadline_violations));
  std::printf("%-24s %12zu\n", "max in-flight", static_cast<std::size_t>(snap.max_in_flight));
  std::printf("%-24s %12.2f\n", "wall time (s)", wall_s);
  std::printf("%-24s %12.3f\n", "cpu ms/window", cpu_ms_per_window);
  std::printf("%-24s %12.2f\n", "mean FISTA iterations", mean_fista_iterations);
  std::printf("%-24s %12.2f\n", "mean operator passes", mean_passes);
  if (host::alloc_counter_enabled() && snap.completed > 0) {
    // Includes warmup (first-touch pool misses, arena growth), so the
    // pooled steady-state rate is strictly below this; alloc_smoke holds
    // the exact-zero line.
    std::printf("%-24s %12.3f\n", "allocs/window (incl warmup)",
                static_cast<double>(allocs_streaming) /
                    static_cast<double>(snap.completed));
  }
  if (pool) {
    const auto pstats = pool->stats();
    std::printf("%-24s %12zu\n", "pool hits", static_cast<std::size_t>(pstats.hits));
    std::printf("%-24s %12zu\n", "pool misses", static_cast<std::size_t>(pstats.misses));
    std::printf("%-24s %12zu\n", "pool recycled", static_cast<std::size_t>(pstats.recycled));
    std::printf("%-24s %12zu\n", "pool dropped", static_cast<std::size_t>(pstats.dropped));
  }

  // Lane split: is the alarm path actually faster than routine telemetry?
  std::printf("\n%-10s %8s %10s %10s %10s %10s %10s %6s\n", "lane", "windows",
              "p50_ms", "p95_ms", "p99_ms", "mean_ms", "violations", "shed");
  for (const auto priority : {cs::WindowPriority::kUrgent, cs::WindowPriority::kRoutine}) {
    const auto lane = fabric.lane_slo_snapshot(priority);
    std::printf("%-10s %8zu %10.2f %10.2f %10.2f %10.2f %10zu %6zu\n",
                cs::to_string(priority), static_cast<std::size_t>(lane.completed),
                lane.p50_ms, lane.p95_ms, lane.p99_ms, lane.mean_ms,
                static_cast<std::size_t>(lane.deadline_violations),
                static_cast<std::size_t>(lane.shed_routine + lane.shed_urgent));
  }

  // Per-shard balance.
  if (fabric.shard_count() > 1) {
    std::printf("\n%-10s %8s %10s %10s %10s %10s\n", "shard", "windows", "p50_ms",
                "p95_ms", "violations", "in-flt max");
    for (const auto& s : fabric.shard_slo_snapshots()) {
      std::printf("%-10zu %8zu %10.2f %10.2f %10zu %10zu\n", s.shard,
                  static_cast<std::size_t>(s.slo.completed), s.slo.p50_ms, s.slo.p95_ms,
                  static_cast<std::size_t>(s.slo.deadline_violations),
                  static_cast<std::size_t>(s.slo.max_in_flight));
    }
  }

  // Per-patient SLO breakdown: which patients are (not) making deadline.
  const auto per_patient = fabric.patient_slo_snapshots();
  if (!per_patient.empty()) {
    std::printf("\n%-10s %8s %10s %10s %10s %10s %10s\n", "patient", "windows",
                "p50_ms", "p95_ms", "p99_ms", "mean_ms", "violations");
    for (const auto& p : per_patient) {
      std::printf("%-10u %8zu %10.2f %10.2f %10.2f %10.2f %10zu\n", p.patient_id,
                  static_cast<std::size_t>(p.slo.completed), p.slo.p50_ms, p.slo.p95_ms,
                  p.slo.p99_ms, p.slo.mean_ms,
                  static_cast<std::size_t>(p.slo.deadline_violations));
    }
  }

  // Every completed window must match the serial batch reference bit for
  // bit; rejected and shed windows are the only ones allowed to be absent.
  bool all_identical =
      streamed.size() + static_cast<std::size_t>(snap.rejected) + shed_total == batch.size();
  std::size_t compared = 0;
  for (const auto& expected : reference.windows) {
    const auto found =
        streamed.find(std::make_pair(expected.patient_id, expected.window_index));
    if (found == streamed.end()) continue;  // Rejected or shed under overload.
    ++compared;
    if (found->second.size() != expected.signal.size() ||
        (!expected.signal.empty() &&
         std::memcmp(found->second.data(), expected.signal.data(),
                     expected.signal.size() * sizeof(double)) != 0)) {
      all_identical = false;
    }
  }
  // A vacuous pass (everything shed/rejected, nothing compared) must fail:
  // this bench doubles as the CI smoke gate for the streaming path.
  all_identical = all_identical && compared == streamed.size() && compared > 0;

  std::printf("\nbit-exactness vs serial (%zu windows): %s\n", compared,
              all_identical ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    // Flat key->number object consumed by scripts/bench_trajectory.py.
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"windows_submitted\": %zu,\n"
                 "  \"windows_completed\": %zu,\n"
                 "  \"windows_rejected\": %zu,\n"
                 "  \"windows_shed\": %zu,\n"
                 "  \"throughput_win_per_s\": %.6f,\n"
                 "  \"latency_p50_ms\": %.6f,\n"
                 "  \"latency_p95_ms\": %.6f,\n"
                 "  \"latency_p99_ms\": %.6f,\n"
                 "  \"latency_mean_ms\": %.6f,\n"
                 "  \"deadline_violations\": %zu,\n"
                 "  \"cpu_ms_per_window\": %.6f,\n"
                 "  \"mean_fista_iterations\": %.6f,\n"
                 "  \"mean_operator_passes\": %.6f,\n"
                 "  \"allocs_per_window_incl_warmup\": %.6f,\n"
                 "  \"alloc_counter_enabled\": %d,\n"
                 "  \"pooled\": %d,\n"
                 "  \"bit_exact\": %d\n"
                 "}\n",
                 static_cast<std::size_t>(snap.submitted),
                 static_cast<std::size_t>(snap.completed),
                 static_cast<std::size_t>(snap.rejected), shed_total,
                 snap.throughput_per_s, snap.p50_ms, snap.p95_ms, snap.p99_ms,
                 snap.mean_ms, static_cast<std::size_t>(snap.deadline_violations),
                 cpu_ms_per_window, mean_fista_iterations, mean_passes,
                 snap.completed > 0 ? static_cast<double>(allocs_streaming) /
                                          static_cast<double>(snap.completed)
                                    : 0.0,
                 host::alloc_counter_enabled() ? 1 : 0, pool ? 1 : 0,
                 all_identical ? 1 : 0);
    std::fclose(out);
    std::printf("json metrics -> %s\n", json_path.c_str());
  }
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* positional[3] = {"16", "24", "50"};
  int n_positional = 0;
  double poisson_hz = 0.0;
  int threads = 4;
  double deadline_ms = -1.0;
  int shards = 1;
  double priority_frac = 0.0;
  bool shed_enabled = false;
  bool pooled = false;
  std::string json_path;
  std::vector<std::pair<std::size_t, int>> reshards;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool is_flag = arg == "--poisson" || arg == "--threads" ||
                         arg == "--deadline-ms" || arg == "--shards" ||
                         arg == "--priority-frac" || arg == "--reshard-at" ||
                         arg == "--json";
    if (is_flag && i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", arg.c_str());
      return 2;
    }
    if (arg == "--poisson") {
      poisson_hz = std::atof(argv[++i]);
    } else if (arg == "--threads") {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--deadline-ms") {
      deadline_ms = std::atof(argv[++i]);
    } else if (arg == "--shards") {
      shards = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--priority-frac") {
      priority_frac = std::atof(argv[++i]);
    } else if (arg == "--shed") {
      shed_enabled = true;
    } else if (arg == "--pool") {
      pooled = true;
    } else if (arg == "--json") {
      json_path = argv[++i];
    } else if (arg == "--reshard-at") {
      // K:S — resize to S shards after the K-th submission attempt.
      const std::string value = argv[++i];
      const auto colon = value.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--reshard-at expects K:S, got %s\n", value.c_str());
        return 2;
      }
      reshards.emplace_back(static_cast<std::size_t>(std::atoll(value.c_str())),
                            std::max(1, std::atoi(value.c_str() + colon + 1)));
    } else if (n_positional < 3 && arg.rfind("--", 0) != 0) {
      positional[n_positional++] = argv[i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  const int patients = std::atoi(positional[0]);
  const int beats = std::atoi(positional[1]);
  const double cr = std::atof(positional[2]);

  std::printf("# host_throughput: %d patients x %d beats, CR %.0f%%\n",
              patients, beats, cr);
  auto batch = make_fleet_batch(patients, beats, cr);  // Moved into run_streaming.
  std::printf("# batch: %zu windows\n\n", batch.size());
  if (batch.empty()) return 0;

  if (poisson_hz > 0.0) {
    if (deadline_ms < 0.0) {
      deadline_ms = cs::window_period_ms(batch.front().window_samples);
    }
    return run_streaming(std::move(batch), poisson_hz, std::max(0, threads),
                         deadline_ms, shards, priority_frac, shed_enabled,
                         std::move(reshards), pooled, json_path);
  }
  return run_batch_sweep(batch);
}
