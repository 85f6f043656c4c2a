// Zero-allocation gate for the streaming hot path.
//
// Drives the pooled submit -> solve -> poll cycle in lockstep passes and
// reads the process-wide heap counter (host/alloc_meter.hpp) around the
// measured passes.  After the warmup passes have primed every pool, arena,
// matrix cache, and thread_local scratch, the steady-state claim is exact:
// ZERO operator-new calls per window, across three engine shapes —
//
//   serial    threads = 0, the poller solves inline;
//   threaded  threads = 1, a worker thread solves (its thread_local arena
//             and the cross-thread completion handoff are on the hook);
//   fabric    2 shards x 1 worker behind the coordinator (ring routing,
//             ack bookkeeping, the pending-results queue and composite
//             ticketing included);
//   wire      the serial engine with every result sent through the
//             wbsn-wire result path before the harness sees it:
//             encode_result_entry (WAVELET_RESIDUAL or FLOAT64), one
//             RESULT_BATCH frame, peek_frame, decode_result_batch into a
//             pooled signal;
//   no-ref    production traffic: windows carry no reference.  Each one
//             crosses a SUBMIT_BATCH frame (the producer's buffers go back
//             to the pool once encoded, as a client's do on ack) and
//             reaches the serial engine with a capacity-0 reference that
//             the pool must not keep — handed out as a measurement or
//             signal buffer, it would allocate on its first fill.
//
// The gate is strict (`> 0` fails, not a budget), which is why the
// harness pre-sizes all of its own bookkeeping before the measured pass.
// Alongside the counter, every pass's reconstructions are compared
// bitwise against a plain unpooled serial reference: pooling must change
// allocation behavior and nothing else.
//
// Exit codes: 0 pass; 1 allocation or determinism failure; 3 the build
// has no counter (compile with -DWBSN_ALLOC_COUNTER=ON, or pass
// --allow-disabled to run the determinism checks alone).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "host/alloc_meter.hpp"
#include "host/payload_pool.hpp"
#include "host/reconstruction_engine.hpp"
#include "host/reconstruction_fabric.hpp"
#include "net/wire_format.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace {

using namespace wbsn;

constexpr int kWarmupPasses = 3;
constexpr int kMeasuredPasses = 2;

struct Traffic {
  std::vector<host::CompressedWindow> templates;  ///< Payload source of truth.
  std::size_t window_samples = 0;
};

Traffic make_traffic(int patients, int beats) {
  Traffic traffic;
  for (int p = 0; p < patients; ++p) {
    sig::SynthConfig synth;
    synth.num_leads = 1;
    synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats}};
    synth.noise = sig::NoiseParams::preset(sig::NoiseLevel::kModerate);
    synth.record_name = "alloc-smoke-" + std::to_string(p);
    sig::Rng rng(0xA110C0DEULL + static_cast<std::uint64_t>(p));
    const auto record = synthesize_ecg(synth, rng);
    auto windows = host::compress_record(record, static_cast<std::uint32_t>(p), {});
    traffic.templates.insert(traffic.templates.end(),
                             std::make_move_iterator(windows.begin()),
                             std::make_move_iterator(windows.end()));
  }
  if (!traffic.templates.empty()) {
    traffic.window_samples = traffic.templates.front().window_samples;
  }
  return traffic;
}

Traffic without_references(Traffic traffic) {
  for (auto& tmpl : traffic.templates) tmpl.reference.clear();
  return traffic;
}

/// Pre-sized result capture: slots are resolved through a map built before
/// the measured pass, and signals copy into buffers that already hold
/// window_samples doubles — the harness itself allocates nothing while the
/// counter is armed.
struct Capture {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> slot_of;
  std::vector<std::vector<double>> signals;

  explicit Capture(const Traffic& traffic) {
    signals.assign(traffic.templates.size(),
                   std::vector<double>(traffic.window_samples, 0.0));
    for (std::size_t i = 0; i < traffic.templates.size(); ++i) {
      slot_of.emplace(std::make_pair(traffic.templates[i].patient_id,
                                     traffic.templates[i].window_index),
                      i);
    }
  }

  void store(const host::WindowResult& result) {
    const auto found =
        slot_of.find(std::make_pair(result.patient_id, result.window_index));
    if (found == slot_of.end() || result.signal.size() != signals[found->second].size()) {
      std::fprintf(stderr, "capture: unexpected result %u/%u (%zu samples)\n",
                   result.patient_id, result.window_index, result.signal.size());
      std::abort();
    }
    std::memcpy(signals[found->second].data(), result.signal.data(),
                result.signal.size() * sizeof(double));
  }

  bool identical(const Capture& other) const {
    if (signals.size() != other.signals.size()) return false;
    for (std::size_t i = 0; i < signals.size(); ++i) {
      if (std::memcmp(signals[i].data(), other.signals[i].data(),
                      signals[i].size() * sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  }
};

/// One lockstep pass: acquire a pooled shell per template, refill it,
/// submit, then poll everything back, recycling each signal.  Submit and
/// poll both run on this thread; workers (if any) solve in between.
template <typename SubmitFn, typename PollFn>
void run_pass(const Traffic& traffic, host::PayloadPool& pool, Capture& capture,
              SubmitFn&& submit, PollFn&& poll) {
  for (const auto& tmpl : traffic.templates) {
    host::CompressedWindow window = pool.acquire_window();
    window.patient_id = tmpl.patient_id;
    window.window_index = tmpl.window_index;
    window.matrix_seed = tmpl.matrix_seed;
    window.window_samples = tmpl.window_samples;
    window.ones_per_column = tmpl.ones_per_column;
    window.priority = tmpl.priority;
    window.measurements.assign(tmpl.measurements.begin(), tmpl.measurements.end());
    window.reference.assign(tmpl.reference.begin(), tmpl.reference.end());
    submit(std::move(window));
  }
  std::size_t polled = 0;
  while (polled < traffic.templates.size()) {
    if (auto result = poll()) {
      capture.store(*result);
      pool.recycle(std::move(*result));
      ++polled;
    } else {
      std::this_thread::yield();
    }
  }
}

struct PhaseReport {
  const char* name;
  std::uint64_t allocs = 0;
  std::uint64_t deallocs = 0;
  bool deterministic = false;
  std::size_t windows = 0;
};

/// Warmup passes, then measured passes with the counter armed.  The
/// measured capture must match the warmup capture bitwise (pass-to-pass
/// determinism) and the unpooled serial reference (pooling changes
/// nothing but allocation).
template <typename SubmitFn, typename PollFn>
PhaseReport run_phase(const char* name, const Traffic& traffic,
                      host::PayloadPool& pool, const Capture& reference,
                      SubmitFn&& submit, PollFn&& poll) {
  Capture warm(traffic);
  for (int pass = 0; pass < kWarmupPasses; ++pass) {
    run_pass(traffic, pool, warm, submit, poll);
  }

  Capture measured(traffic);
  const std::uint64_t allocs_before = host::alloc_count();
  const std::uint64_t deallocs_before = host::dealloc_count();
  for (int pass = 0; pass < kMeasuredPasses; ++pass) {
    run_pass(traffic, pool, measured, submit, poll);
  }
  PhaseReport report;
  report.name = name;
  report.allocs = host::alloc_count() - allocs_before;
  report.deallocs = host::dealloc_count() - deallocs_before;
  report.deterministic = measured.identical(warm) && measured.identical(reference);
  report.windows = traffic.templates.size() * kMeasuredPasses;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  bool allow_disabled = false;
  int patients = 4;
  int beats = 6;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--allow-disabled") {
      allow_disabled = true;
    } else if (arg == "--patients" && i + 1 < argc) {
      patients = std::atoi(argv[++i]);
    } else if (arg == "--beats" && i + 1 < argc) {
      beats = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: alloc_smoke [--patients N] [--beats B] [--allow-disabled]\n");
      return 2;
    }
  }

  if (!host::alloc_counter_enabled()) {
    std::fprintf(stderr,
                 "alloc_smoke: built without WBSN_ALLOC_COUNTER — the heap "
                 "counter reads 0 unconditionally.\n");
    if (!allow_disabled) return 3;
  }

  const Traffic traffic = make_traffic(patients, beats);
  if (traffic.templates.empty()) {
    std::fprintf(stderr, "alloc_smoke: no traffic generated\n");
    return 2;
  }
  std::printf("# alloc_smoke: %zu windows/pass, %d warmup + %d measured passes\n",
              traffic.templates.size(), kWarmupPasses, kMeasuredPasses);

  // Unpooled serial reference: the determinism yardstick for every phase.
  Capture reference(traffic);
  {
    host::ReconstructionEngine engine(host::EngineConfig{});
    for (const auto& tmpl : traffic.templates) engine.submit(tmpl);
    for (auto& result : engine.drain()) reference.store(result);
  }

  std::vector<PhaseReport> reports;

  {
    auto pool = std::make_shared<host::PayloadPool>();
    host::EngineConfig cfg;
    cfg.threads = 0;
    cfg.payload_pool = pool;
    host::ReconstructionEngine engine(cfg);
    reports.push_back(run_phase(
        "serial(threads=0)", traffic, *pool, reference,
        [&](host::CompressedWindow&& w) { engine.submit(std::move(w)); },
        [&] { return engine.poll(); }));
  }
  {
    auto pool = std::make_shared<host::PayloadPool>();
    host::EngineConfig cfg;
    cfg.threads = 1;
    cfg.payload_pool = pool;
    host::ReconstructionEngine engine(cfg);
    reports.push_back(run_phase(
        "threaded(threads=1)", traffic, *pool, reference,
        [&](host::CompressedWindow&& w) { engine.submit(std::move(w)); },
        [&] { return engine.poll(); }));
  }
  {
    auto pool = std::make_shared<host::PayloadPool>();
    host::FabricConfig cfg;
    cfg.shards = 2;
    cfg.engine.threads = 1;
    cfg.engine.payload_pool = pool;
    host::ReconstructionFabric fabric(cfg);
    reports.push_back(run_phase(
        "fabric(2x1)", traffic, *pool, reference,
        [&](host::CompressedWindow&& w) { fabric.submit(std::move(w)); },
        [&] { return fabric.poll(); }));
  }

  {
    auto pool = std::make_shared<host::PayloadPool>();
    host::EngineConfig cfg;
    cfg.threads = 0;
    cfg.payload_pool = pool;
    host::ReconstructionEngine engine(cfg);
    std::vector<std::uint8_t> staging, frame;
    std::vector<host::WindowResult> decoded;
    reports.push_back(run_phase(
        "wire(serial)", traffic, *pool, reference,
        [&](host::CompressedWindow&& w) { engine.submit(std::move(w)); },
        [&]() -> std::optional<host::WindowResult> {
          auto result = engine.poll();
          if (!result) return std::nullopt;
          staging.clear();
          frame.clear();
          net::encode_result_entry(staging, *result, net::WireEncodeOptions{});
          pool->recycle(std::move(*result));
          net::encode_result_batch(frame, staging, 1);
          net::FrameView view;
          if (net::peek_frame(frame, view) != net::FrameStatus::kOk ||
              !net::decode_result_batch(view.payload, decoded, pool.get()) ||
              decoded.size() != 1) {
            std::fprintf(stderr, "wire: result frame failed to round-trip\n");
            std::abort();
          }
          return std::move(decoded.front());
        }));
  }

  {
    auto pool = std::make_shared<host::PayloadPool>();
    host::EngineConfig cfg;
    cfg.threads = 0;
    cfg.payload_pool = pool;
    host::ReconstructionEngine engine(cfg);
    std::vector<std::uint8_t> frame;
    std::vector<host::CompressedWindow> decoded;
    reports.push_back(run_phase(
        "no-ref(wire-in)", without_references(traffic), *pool, reference,
        [&](host::CompressedWindow&& w) {
          frame.clear();
          net::encode_submit_batch(frame, {&w, 1}, 0, net::WireEncodeOptions{});
          pool->recycle(std::move(w));
          net::FrameView view;
          std::uint8_t flags = 0;
          if (net::peek_frame(frame, view) != net::FrameStatus::kOk ||
              !net::decode_submit_batch(view.payload, flags, decoded, pool.get()) ||
              decoded.size() != 1 || !decoded.front().reference.empty()) {
            std::fprintf(stderr, "no-ref: window frame failed to round-trip\n");
            std::abort();
          }
          engine.submit(std::move(decoded.front()));
        },
        [&] { return engine.poll(); }));
  }

  bool pass = true;
  std::printf("\n%-20s %10s %10s %14s %14s %8s\n", "phase", "windows", "allocs",
              "allocs/window", "deallocs", "bits");
  for (const auto& report : reports) {
    const double per_window =
        static_cast<double>(report.allocs) / static_cast<double>(report.windows);
    const bool phase_ok =
        report.deterministic &&
        (!host::alloc_counter_enabled() || report.allocs == 0);
    pass = pass && phase_ok;
    std::printf("%-20s %10zu %10" PRIu64 " %14.3f %14" PRIu64 " %8s%s\n",
                report.name, report.windows, report.allocs, per_window,
                report.deallocs, report.deterministic ? "exact" : "DIFF",
                phase_ok ? "" : "  [FAIL]");
  }
  std::printf("\nzero-allocation steady state: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
