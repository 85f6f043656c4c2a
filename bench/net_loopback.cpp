// Cross-machine fabric loopback throughput: RoutingClient -> N in-process
// ShardServers over real TCP sockets on 127.0.0.1.  Measures the wire
// path end to end — wbsn-wire encode, kernel socket round trip, decode
// into pooled buffers, solve, result frame back — and reports windows/s,
// per-window wire bytes in each direction, and the same bit-exactness
// check against the serial in-process reference that every fabric bench
// carries.  The delta between this and host_throughput at equal thread
// counts is the price of the process boundary.
//
// Usage: net_loopback [patients] [beats_per_patient] [cr_percent]
//                     [--shards N] [--threads N] [--no-fixed] [--hints]
//                     [--pipeline N] [--batch-frames K] [--repeat R]
//                     [--json PATH]
//
// --hints runs the closed-loop CR-hint drill instead; see the block
// comment above run_hint_loop().
//
// --threads is each shard's worker count.  --no-fixed disables the
// fixed-point measurement coding (fixed_scale = 0) to measure how much
// the compact coding buys on the submit path.
//
// Without --pipeline every window is a blocking one-window SUBMIT_BATCH
// round trip.  --pipeline N switches to the pipelined submit-path mode:
// SUBMIT_BATCH frames of --batch-frames windows, up to N unacknowledged
// frames per shard, best of --repeat runs against fresh fleets.  The
// headline metric is submit-path throughput — first submit to last
// durable ACK — because that is the path pipelining changes.  Solve and
// result retrieval stay outside the timed submit window: pipeline-mode
// shards run the serial engine (solves happen during the drain, after the
// submit clock stops), and the drain feeds the bit-exactness gate against
// a serial in-process reference with the identical config, so the
// determinism contract is still enforced end to end.  End-to-end wall
// time is reported alongside for transparency.  --json writes the
// pipeline-mode metrics as a flat JSON object (the bench_trajectory.py
// input; its keys keep the v2_ prefix of the committed baseline).  Only
// --json pays for its result-path byte figure, which comes from the same
// batch solved again to convergence (see converged_result_bytes_per_window).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cs/pipeline.hpp"
#include "host/payload_pool.hpp"
#include "net/routing_client.hpp"
#include "net/shard_server.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace {

using namespace wbsn;
using Clock = std::chrono::steady_clock;
using WindowKey = std::pair<std::uint32_t, std::uint32_t>;

std::vector<host::CompressedWindow> make_fleet_batch(int patients,
                                                     int beats_per_patient,
                                                     double cr_percent,
                                                     std::size_t window_samples) {
  std::vector<host::CompressedWindow> batch;
  for (int p = 0; p < patients; ++p) {
    sig::SynthConfig synth;
    synth.num_leads = 1;
    synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats_per_patient}};
    synth.record_name = "patient-" + std::to_string(p);
    sig::Rng rng(0x10013AD0ULL + static_cast<std::uint64_t>(p));
    const auto record = synthesize_ecg(synth, rng);

    host::RecordCompressionConfig compression;
    compression.cr_percent = cr_percent;
    if (window_samples != 0) compression.window_samples = window_samples;
    auto windows = host::compress_record(record, static_cast<std::uint32_t>(p),
                                         compression);
    batch.insert(batch.end(), std::make_move_iterator(windows.begin()),
                 std::make_move_iterator(windows.end()));
  }
  return batch;
}

std::map<WindowKey, std::vector<double>> serial_reference(
    const std::vector<host::CompressedWindow>& batch, const host::EngineConfig& cfg) {
  std::map<WindowKey, std::vector<double>> reference;
  host::EngineConfig serial_cfg = cfg;
  serial_cfg.threads = 0;
  serial_cfg.payload_pool.reset();
  host::ReconstructionEngine serial(serial_cfg);
  for (const auto& window : batch) {
    host::CompressedWindow copy = window;
    serial.submit(std::move(copy));
  }
  for (auto& result : serial.drain()) {
    reference.emplace(WindowKey{result.patient_id, result.window_index},
                      std::move(result.signal));
  }
  return reference;
}

bool matches_reference(const std::vector<host::WindowResult>& results,
                       const std::map<WindowKey, std::vector<double>>& reference) {
  if (results.size() != reference.size()) return false;
  for (const auto& result : results) {
    const auto expected = reference.find({result.patient_id, result.window_index});
    if (expected == reference.end() ||
        result.signal.size() != expected->second.size() ||
        (!result.signal.empty() &&
         std::memcmp(result.signal.data(), expected->second.data(),
                     result.signal.size() * sizeof(double)) != 0)) {
      return false;
    }
  }
  return true;
}

/// One fleet of in-process ShardServers, each on its own event-loop
/// thread — identical protocol path to a real daemon, minus fork/exec.
struct Fleet {
  struct Shard {
    std::unique_ptr<net::ShardServer> server;
    std::thread loop;
  };
  std::vector<Shard> shards;
  std::vector<net::ShardEndpoint> endpoints;

  bool start(int count, const host::EngineConfig& engine, double fixed_scale,
             double hint_cr = 0.0) {
    shards.resize(static_cast<std::size_t>(count));
    for (auto& shard : shards) {
      net::ShardServerConfig cfg;
      cfg.engine = engine;
      cfg.engine.payload_pool = std::make_shared<host::PayloadPool>();
      cfg.wire.fixed_scale = fixed_scale;
      cfg.hint_cr_percent = hint_cr;
      // Unconditional advisory (no backlog gate): the hint-loop drill
      // proves the propagation path deterministically; the pressure gate
      // itself is engine/server unit-test territory.
      cfg.hint_backlog_deadlines = 0.0;
      shard.server = std::make_unique<net::ShardServer>(cfg);
      if (!shard.server->start()) return false;
      shard.loop = std::thread([s = shard.server.get()] { s->run(); });
      endpoints.push_back({"127.0.0.1", shard.server->port()});
    }
    return true;
  }

  ~Fleet() {
    for (auto& shard : shards) {
      if (shard.server) shard.server->stop();
      if (shard.loop.joinable()) shard.loop.join();
    }
  }
};

/// Result-path wire cost of completed results: RESULT_BATCH bytes with one
/// result per frame, and how many signals shipped in each value coding.
struct ResultWire {
  std::size_t bytes = 0;
  std::map<net::ValueCoding, std::size_t> signals_by_coding;
};

ResultWire result_wire_bytes(const std::vector<host::WindowResult>& results) {
  ResultWire out;
  std::vector<std::uint8_t> staging, frame;
  for (const auto& result : results) {
    staging.clear();
    frame.clear();
    ++out.signals_by_coding[net::encode_result_entry(staging, result, net::WireEncodeOptions{})];
    net::encode_result_batch(frame, staging, 1);
    out.bytes += frame.size();
  }
  return out;
}

struct PhaseResult {
  std::size_t completed = 0;
  double submit_s = 0.0;  // First submit -> last durable ACK.
  double wall_s = 0.0;    // Submit + drain, end to end.
  bool bit_exact = false;
  bool submits_ok = false;
  ResultWire result_wire;
};

/// Runs the whole batch through a fresh client: per-window blocking
/// submits when `pipeline` is 0, the pipelined path otherwise.
PhaseResult run_phase(const std::vector<host::CompressedWindow>& batch,
                      const std::map<WindowKey, std::vector<double>>& reference,
                      const net::RoutingClientConfig& client_cfg,
                      const std::vector<net::ShardEndpoint>& endpoints,
                      std::size_t pipeline) {
  PhaseResult out;
  net::RoutingClient client(client_cfg);
  if (!client.connect(endpoints)) {
    std::fprintf(stderr, "client failed to connect\n");
    return out;
  }

  // Traffic generation (the per-window copies) happens before the clock
  // starts: the timed region is the submit wire path, nothing else.
  std::vector<host::CompressedWindow> traffic;
  traffic.reserve(batch.size());
  for (const auto& window : batch) traffic.push_back(window);

  const auto t0 = Clock::now();
  std::size_t submitted = 0;
  if (pipeline == 0) {
    for (auto& window : traffic) {
      if (client.submit(std::move(window)).has_value()) ++submitted;
    }
  } else {
    for (auto& window : traffic) {
      if (client.submit_pipelined(std::move(window))) ++submitted;
    }
    if (std::getenv("WBSN_BENCH_SEGMENTS") != nullptr) {
      std::fprintf(stderr, "stage+seal: %.3f ms\n",
                   std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    }
    for (const auto& ticket : client.flush_submits()) {
      if (!ticket.has_value()) --submitted;
    }
  }
  out.submit_s = std::chrono::duration<double>(Clock::now() - t0).count();
  auto results = client.drain();
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.completed = results.size();
  out.submits_ok = submitted == batch.size();
  out.bit_exact = matches_reference(results, reference);
  out.result_wire = result_wire_bytes(results);
  client.shutdown(/*send_bye=*/false);
  return out;
}

/// RESULT_BATCH bytes per window, one result per frame, of `batch` solved
/// by the serial engine with the default (converged) FISTA config.  The
/// pipelined phase solves one iteration, so every result it gets back
/// ships FLOAT64 and cannot show the signal coder; converged solves are
/// the steady shape and ship WAVELET_RESIDUAL.  Deterministic.
double converged_result_bytes_per_window(const std::vector<host::CompressedWindow>& batch) {
  host::EngineConfig cfg;
  cfg.threads = 0;
  host::ReconstructionEngine serial(cfg);
  for (const auto& window : batch) {
    host::CompressedWindow copy = window;
    serial.submit(std::move(copy));
  }
  const auto results = serial.drain();
  if (results.empty()) return 0.0;
  return static_cast<double>(result_wire_bytes(results).bytes) /
         static_cast<double>(results.size());
}

/// Submit-path wire bytes for the whole batch in SUBMIT_BATCH frames of
/// `batch_frames` windows.
std::size_t submit_wire_bytes(const std::vector<host::CompressedWindow>& batch,
                              double fixed_scale, std::size_t batch_frames) {
  std::vector<std::uint8_t> buf;
  net::WireEncodeOptions wire;
  wire.fixed_scale = fixed_scale;
  std::size_t total = 0;
  for (std::size_t i = 0; i < batch.size(); i += batch_frames) {
    const std::size_t count = std::min(batch_frames, batch.size() - i);
    buf.clear();
    net::encode_submit_batch(buf, {batch.data() + i, count}, net::kSubmitFlagBlocking,
                             wire);
    total += buf.size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Closed-loop CR-hint drill (--hints): the full adaptive-compression loop
// over real sockets.  Every shard is configured with an unconditional CR
// advisory (hint_cr_percent = base CR + 20); node-side AdaptiveEncoders
// encode the first half of each patient's windows at the base CR, the
// client reads each shard's advisory off one SNAPSHOT per shard, and the
// second half is re-encoded at the hinted CR — fewer measurements on the
// wire, solved host-side against the same seeded operator rebuilt at the
// hinted m.
// Gates: every patient receives the hint, hinted windows carry exactly
// rows_for_cr(hint_cr, n) measurements, everything completed is
// bit-exact against a serial reference of the identical submitted
// windows.

int run_hint_loop(int patients, int beats, double cr, int shards, int threads,
                  double scale, const char* json_path) {
  const double hint_cr = std::min(90.0, cr + 20.0);

  // Node side: one raw single-lead record and one AdaptiveEncoder per
  // patient, seeded exactly like host::compress_record's lead 0 so a
  // hinted window reconstructs like a natively-encoded one.
  cs::CsPipelineConfig node_cfg;
  node_cfg.matrix_seed = cs::lead_matrix_seed(0xC0FFEE, 0);
  struct Node {
    std::vector<double> lead;
    std::unique_ptr<cs::AdaptiveEncoder> encoder;
  };
  std::vector<Node> nodes;
  for (int p = 0; p < patients; ++p) {
    sig::SynthConfig synth;
    synth.num_leads = 1;
    synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats}};
    synth.record_name = "patient-" + std::to_string(p);
    sig::Rng rng(0x10013AD0ULL + static_cast<std::uint64_t>(p));
    auto record = synthesize_ecg(synth, rng);
    Node node;
    node.lead = std::move(record.leads[0]);
    node.encoder = std::make_unique<cs::AdaptiveEncoder>(node_cfg);
    nodes.push_back(std::move(node));
  }
  const auto n = static_cast<std::uint32_t>(node_cfg.window_samples);
  std::size_t windows_per_patient = nodes.front().lead.size() / n;
  for (const auto& node : nodes) {
    windows_per_patient = std::min(windows_per_patient, node.lead.size() / n);
  }
  if (windows_per_patient < 2) {
    std::fprintf(stderr, "record too short for the two-phase drill\n");
    return 2;
  }
  const std::size_t half = windows_per_patient / 2;

  const auto encode_window_at = [&](std::size_t p, std::size_t w,
                                    double cr_percent) {
    Node& node = nodes[p];
    const auto window_mv =
        std::span<const double>(node.lead).subspan(w * n, n);
    auto encoded = node.encoder->encode_at(cr_percent, window_mv);
    host::CompressedWindow cw;
    cw.patient_id = static_cast<std::uint32_t>(p);
    cw.window_index = static_cast<std::uint32_t>(w);
    cw.matrix_seed = node_cfg.matrix_seed;
    cw.window_samples = n;
    cw.ones_per_column = static_cast<std::uint32_t>(node_cfg.ones_per_column);
    cw.measurements = std::move(encoded.measurements);
    cw.reference = std::move(encoded.reference);
    return cw;
  };

  host::EngineConfig engine_cfg;
  engine_cfg.threads = threads;
  Fleet fleet;
  if (!fleet.start(shards, engine_cfg, scale, hint_cr)) {
    std::fprintf(stderr, "shard failed to start\n");
    return 1;
  }
  net::RoutingClientConfig client_cfg;
  client_cfg.wire.fixed_scale = scale;
  net::RoutingClient client(client_cfg);
  if (!client.connect(fleet.endpoints)) {
    std::fprintf(stderr, "client failed to connect\n");
    return 1;
  }

  std::printf("hint loop: %d patients x %zu windows (n=%u), CR %.0f%% base, "
              "shard advisory CR %.0f%%, %d shard%s x %d worker%s\n",
              patients, windows_per_patient, n, cr, hint_cr, shards,
              shards == 1 ? "" : "s", threads, threads == 1 ? "" : "s");

  // Phase 1: base-CR traffic.  `submitted` keeps a copy of every window
  // exactly as it went on the wire — the serial-reference input.
  std::vector<host::CompressedWindow> submitted;
  std::size_t accepted = 0;
  for (std::size_t p = 0; p < nodes.size(); ++p) {
    for (std::size_t w = 0; w < half; ++w) {
      auto cw = encode_window_at(p, w, cr);
      submitted.push_back(cw);
      if (client.submit(std::move(cw)).has_value()) ++accepted;
    }
  }

  // The closed loop: pull the fleet's advisory back to the node side, one
  // SNAPSHOT per shard.
  const bool refresh_ok = client.refresh_cr_hints();
  std::size_t hinted_patients = 0;
  for (std::size_t p = 0; p < nodes.size(); ++p) {
    const auto hint = client.cr_hint(static_cast<std::uint32_t>(p));
    if (hint && std::abs(*hint - hint_cr) < 0.01) ++hinted_patients;
  }

  // Phase 2: re-encode at whatever the fleet asked for.
  const std::size_t m_hint = cs::rows_for_cr(hint_cr, n);
  bool hinted_m_ok = true;
  for (std::size_t p = 0; p < nodes.size(); ++p) {
    for (std::size_t w = half; w < windows_per_patient; ++w) {
      const auto hint = client.cr_hint(static_cast<std::uint32_t>(p));
      auto cw = encode_window_at(p, w, hint.value_or(cr));
      hinted_m_ok = hinted_m_ok && (!hint || cw.measurements.size() == m_hint);
      submitted.push_back(cw);
      if (client.submit(std::move(cw)).has_value()) ++accepted;
    }
  }

  const auto results = client.drain();
  const auto reference = serial_reference(submitted, engine_cfg);
  const bool bit_exact = matches_reference(results, reference);

  // SNR split: the price of the hinted half, measured end to end.
  double base_snr = 0.0, hinted_snr = 0.0;
  std::size_t base_count = 0, hinted_count = 0;
  for (const auto& result : results) {
    if (std::isnan(result.snr_db)) continue;
    if (result.window_index < half) {
      base_snr += result.snr_db;
      ++base_count;
    } else {
      hinted_snr += result.snr_db;
      ++hinted_count;
    }
  }
  base_snr = base_count > 0 ? base_snr / static_cast<double>(base_count) : 0.0;
  hinted_snr =
      hinted_count > 0 ? hinted_snr / static_cast<double>(hinted_count) : 0.0;

  client.shutdown(/*send_bye=*/false);

  std::printf("\n%-28s %12s\n", "metric", "value");
  std::printf("%-28s %12zu\n", "windows submitted", submitted.size());
  std::printf("%-28s %12zu\n", "windows completed", results.size());
  std::printf("%-28s %12zu / %d\n", "patients hinted", hinted_patients, patients);
  std::printf("%-28s %12zu\n", "base measurements/window",
              cs::rows_for_cr(cr, n));
  std::printf("%-28s %12zu\n", "hinted measurements/window", m_hint);
  std::printf("%-28s %12.2f\n", "base-CR mean SNR (dB)", base_snr);
  std::printf("%-28s %12.2f\n", "hinted-CR mean SNR (dB)", hinted_snr);
  std::printf("%-28s %12s\n", "hinted m on the wire", hinted_m_ok ? "PASS" : "FAIL");
  std::printf("\nbit-exactness vs serial (%zu windows): %s\n", results.size(),
              bit_exact ? "PASS" : "FAIL");

  const bool ok = refresh_ok && hinted_patients == static_cast<std::size_t>(patients) &&
                  hinted_m_ok && bit_exact &&
                  accepted == submitted.size() && results.size() == submitted.size();
  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::perror("fopen --json");
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bit_exact\": %d,\n"
                 "  \"hinted_patients\": %zu,\n"
                 "  \"patients\": %d,\n"
                 "  \"hint_cr_percent\": %.6f,\n"
                 "  \"base_mean_snr_db\": %.6f,\n"
                 "  \"hinted_mean_snr_db\": %.6f,\n"
                 "  \"hinted_m_ok\": %d,\n"
                 "  \"windows\": %zu\n"
                 "}\n",
                 bit_exact ? 1 : 0, hinted_patients, patients, hint_cr, base_snr,
                 hinted_snr, hinted_m_ok ? 1 : 0, submitted.size());
    std::fclose(f);
  }
  std::printf("\nhint loop: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* positional[3] = {"8", "12", "50"};
  int n_positional = 0;
  int shards = 2;
  int threads = 2;
  bool fixed_coding = true;
  bool hints = false;
  std::size_t pipeline = 0;
  std::size_t batch_frames = 16;
  const char* json_path = nullptr;
  std::size_t repeat = 3;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--shards" || arg == "--threads" || arg == "--pipeline" ||
         arg == "--batch-frames" || arg == "--repeat" || arg == "--json") &&
        i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", arg.c_str());
      return 2;
    }
    if (arg == "--shards") {
      shards = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--threads") {
      threads = std::max(0, std::atoi(argv[++i]));
    } else if (arg == "--no-fixed") {
      fixed_coding = false;
    } else if (arg == "--hints") {
      hints = true;
    } else if (arg == "--pipeline") {
      pipeline = static_cast<std::size_t>(std::max(0, std::atoi(argv[++i])));
    } else if (arg == "--batch-frames") {
      batch_frames = static_cast<std::size_t>(std::max(1, std::atoi(argv[++i])));
    } else if (arg == "--repeat") {
      repeat = static_cast<std::size_t>(std::max(1, std::atoi(argv[++i])));
    } else if (arg == "--json") {
      json_path = argv[++i];
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

  if (hints) {
    return run_hint_loop(
        patients, beats, cr, shards, threads,
        fixed_coding ? cs::measurement_scale_mv(sig::AdcConfig{}) : 0.0,
        json_path);
  }

  // Pipeline mode uses the node-native 128-sample window (what a sensor
  // radio actually emits) so per-window wire cost — not solve cost —
  // dominates; single-phase mode keeps the host-side default.
  auto batch = make_fleet_batch(patients, beats, cr, pipeline > 0 ? 128u : 0u);
  std::printf("# net_loopback: %d patients x %d beats, CR %.0f%% -> %zu windows, "
              "%d shard%s x %d worker%s, %s measurement coding\n",
              patients, beats, cr, batch.size(), shards, shards == 1 ? "" : "s",
              threads, threads == 1 ? "" : "s",
              fixed_coding ? "fixed-point" : "float64");
  if (batch.empty()) return 0;

  const double scale =
      fixed_coding ? cs::measurement_scale_mv(sig::AdcConfig{}) : 0.0;

  host::EngineConfig engine_cfg;
  engine_cfg.threads = threads;
  if (pipeline > 0) {
    // Pipeline mode measures the submit wire path, not the solver: the
    // shards run the serial engine (solves happen during the drain, after
    // the submit clock stops) with a light FISTA config so solver work
    // cannot leak into the timed submit window.  The serial
    // reference uses the identical config, so the bit-exactness gate is
    // unaffected.
    engine_cfg.threads = 0;
    engine_cfg.fista.max_iterations = 1;
    engine_cfg.fista.debias_iterations = 0;
  }
  const auto reference = serial_reference(batch, engine_cfg);

  if (pipeline == 0) {
    // Single-phase mode: submits are per-window blocking round trips.
    Fleet fleet;
    if (!fleet.start(shards, engine_cfg, scale)) {
      std::fprintf(stderr, "shard failed to start\n");
      return 1;
    }
    net::RoutingClientConfig client_cfg;
    client_cfg.wire.fixed_scale = scale;
    client_cfg.payload_pool = std::make_shared<host::PayloadPool>();
    const auto phase = run_phase(batch, reference, client_cfg, fleet.endpoints, 0);

    const std::size_t submit_bytes = submit_wire_bytes(batch, scale, 1);

    std::printf("\n%-28s %12s\n", "metric", "value");
    std::printf("%-28s %12zu\n", "windows submitted", batch.size());
    std::printf("%-28s %12zu\n", "windows completed", phase.completed);
    std::printf("%-28s %12.1f\n", "throughput (win/s)",
                static_cast<double>(phase.completed) / phase.wall_s);
    std::printf("%-28s %12.2f\n", "wall time (s)", phase.wall_s);
    std::printf("%-28s %12.1f\n", "submit wire bytes/window",
                static_cast<double>(submit_bytes) / static_cast<double>(batch.size()));
    if (phase.completed > 0) {
      std::printf("%-28s %12.1f\n", "result wire bytes/window",
                  static_cast<double>(phase.result_wire.bytes) /
                      static_cast<double>(phase.completed));
    }
    for (const auto& [coding, count] : phase.result_wire.signals_by_coding) {
      const char* name = coding == net::ValueCoding::kWaveletResidual ? "WAVELET_RESIDUAL"
                                                                      : "FLOAT64";
      std::printf("%-28s %12zu\n", (std::string("signals ") + name).c_str(), count);
    }

    std::printf("\nbit-exactness vs serial (%zu windows): %s\n", phase.completed,
                phase.bit_exact ? "PASS" : "FAIL");
    return phase.bit_exact ? 0 : 1;
  }

  net::RoutingClientConfig client_cfg;
  client_cfg.wire.fixed_scale = scale;
  client_cfg.payload_pool = std::make_shared<host::PayloadPool>();
  client_cfg.pipeline_depth = pipeline;
  client_cfg.submit_batch_windows = batch_frames;

  // Best-of-N on the submit clock: a shared-core container's scheduler
  // can land anywhere in a single run, so each repeat runs against a fresh
  // fleet and the fastest submit window is what gets reported.
  // Correctness is not best-of-N: every repeat must be bit-exact with all
  // submits accepted.
  PhaseResult best;
  bool every_run_ok = true;
  for (std::size_t r = 0; r < repeat; ++r) {
    Fleet fleet;
    if (!fleet.start(shards, engine_cfg, scale)) {
      std::fprintf(stderr, "shard failed to start\n");
      return 1;
    }
    const auto run = run_phase(batch, reference, client_cfg, fleet.endpoints, pipeline);
    every_run_ok = every_run_ok && run.bit_exact && run.submits_ok;
    if (r == 0 || run.submit_s < best.submit_s) best = run;
  }

  // The headline rate is the submit path — first submit to last durable
  // ACK — over the full batch; that is the path pipelining changes.
  const double rate = static_cast<double>(batch.size()) / best.submit_s;
  const double bytes = static_cast<double>(submit_wire_bytes(batch, scale, batch_frames)) /
                       static_cast<double>(batch.size());

  std::printf("\n%-28s %12s\n", "metric", "pipelined");
  std::printf("%-28s %12zu\n", "windows completed", best.completed);
  std::printf("%-28s %12.1f\n", "submit throughput (win/s)", rate);
  std::printf("%-28s %12.2f\n", "submit time (ms)", best.submit_s * 1e3);
  std::printf("%-28s %12.2f\n", "end-to-end wall (s)", best.wall_s);
  std::printf("%-28s %12.1f\n", "submit wire bytes/window", bytes);
  std::printf("\nbit-exactness vs serial (%zu windows, depth %zu, %zu windows/frame): %s\n",
              best.completed, pipeline, batch_frames, every_run_ok ? "PASS" : "FAIL");

  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::perror("fopen --json");
      return 1;
    }
    const double result_bytes = converged_result_bytes_per_window(batch);
    std::fprintf(f,
                 "{\n"
                 "  \"bit_exact\": %d,\n"
                 "  \"pipeline_depth\": %zu,\n"
                 "  \"batch_frames\": %zu,\n"
                 "  \"submit_bytes_per_window_v2\": %.1f,\n"
                 "  \"result_bytes_per_window_v2\": %.1f,\n"
                 "  \"v2_win_per_s\": %.6f,\n"
                 "  \"v2_wall_s\": %.6f,\n"
                 "  \"windows\": %zu\n"
                 "}\n",
                 every_run_ok ? 1 : 0, pipeline, batch_frames, bytes, result_bytes, rate,
                 best.wall_s,
                 batch.size());
    std::fclose(f);
  }
  return every_run_ok ? 0 : 1;
}
