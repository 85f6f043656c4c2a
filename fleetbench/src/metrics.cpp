#include "metrics.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "energy/node.hpp"
#include "net/wire_format.hpp"
#include "sig/adc.hpp"

namespace fleetbench {

using namespace wbsn;

namespace {

constexpr std::size_t kWireSampleWindows = 4096;
constexpr std::size_t kBatchWindows = 16;  ///< Matches the client's SUBMIT_BATCH size.

std::vector<const WindowRecord*> completed_fixed(const Session& session) {
  std::vector<const WindowRecord*> out;
  for (const auto& rec : session.records()) {
    if (rec.phase == Phase::kFixedRate && rec.state == State::kReceived) out.push_back(&rec);
  }
  return out;
}

energy::EnergyBreakdown node_energy(const Workload& w, const Inputs& in) {
  const energy::NodeEnergyModel model;
  return model.window_energy(static_cast<std::uint32_t>((in.phi->rows() * 14 + 7) / 8),
                             in.encode_ops, w.window_samples,
                             static_cast<double>(w.window_samples) / sig::kDefaultFs);
}

struct WireBytes {
  double submit = 0.0;  ///< Per window.
  double result = 0.0;  ///< Per window.
  double encode_ns = 0.0;
  double decode_ns = 0.0;
};

/// Submit and result wbsn-wire bytes per window of the fixed-rate traffic,
/// framed as the client frames it: SUBMIT_BATCH frames of kBatchWindows
/// windows, RESULT_BATCH frames of kBatchWindows results.
WireBytes wire_bytes(const Inputs& in, const Session& session, bool time_codec) {
  const auto done = completed_fixed(session);
  const std::size_t count = std::min(done.size(), kWireSampleWindows);
  WireBytes out;
  if (count == 0) return out;
  net::WireEncodeOptions wire;
  wire.fixed_scale = cs::measurement_scale_mv(sig::AdcConfig{});
  std::vector<host::CompressedWindow> windows;
  std::vector<host::WindowResult> results;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& rec = *done[i];
    const auto seq = static_cast<std::uint32_t>(&rec - session.records().data());
    windows.push_back(make_window(in, rec.source, seq, in.sources[rec.source].measurements));
    host::WindowResult result;
    result.patient_id = in.sources[rec.source].patient;
    result.window_index = seq;
    result.priority = in.sources[rec.source].priority;
    result.ticket = seq;
    result.signal = in.sources[rec.source].expected;
    result.snr_db = std::numeric_limits<double>::quiet_NaN();
    result.latency_ms = rec.solve_ms;
    result.e2e_ms = rec.e2e_ms;
    results.push_back(std::move(result));
  }

  std::vector<std::uint8_t> buf;
  std::size_t submit_total = 0, result_total = 0;
  std::vector<std::uint8_t> staging;
  for (std::size_t i = 0; i < count; i += kBatchWindows) {
    const std::size_t k = std::min(kBatchWindows, count - i);
    buf.clear();
    net::encode_submit_batch(buf, {windows.data() + i, k}, net::kSubmitFlagBlocking, wire);
    submit_total += buf.size();
    staging.clear();
    for (std::size_t j = i; j < i + k; ++j) net::encode_result_entry(staging, results[j], wire);
    buf.clear();
    net::encode_result_batch(buf, staging, k);
    result_total += buf.size();
  }
  out.submit = static_cast<double>(submit_total) / static_cast<double>(count);
  out.result = static_cast<double>(result_total) / static_cast<double>(count);
  if (!time_codec) return out;

  // Codec cost on the same windows: whole SUBMIT_BATCH frames, repeated
  // until each side has run for at least 20 ms; the median repeat counts.
  std::vector<double> enc_ns, dec_ns;
  std::vector<host::CompressedWindow> decoded;
  double spent_ms = 0.0;
  while (spent_ms < 40.0 || enc_ns.size() < 5) {
    const auto t0 = Clock::now();
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::size_t i = 0; i < count; i += kBatchWindows) {
      frames.emplace_back();
      net::encode_submit_batch(frames.back(),
                               {windows.data() + i, std::min(kBatchWindows, count - i)},
                               net::kSubmitFlagBlocking, wire);
    }
    const auto t1 = Clock::now();
    for (const auto& frame : frames) {
      net::FrameView view;
      std::uint8_t flags = 0;
      if (net::peek_frame(frame, view) != net::FrameStatus::kOk ||
          !net::decode_submit_batch(view.payload, flags, decoded, nullptr)) {
        return out;  // Unreachable for frames we just encoded.
      }
    }
    const auto t2 = Clock::now();
    enc_ns.push_back(1e6 * ms_between(t0, t1) / static_cast<double>(count));
    dec_ns.push_back(1e6 * ms_between(t1, t2) / static_cast<double>(count));
    spent_ms += ms_between(t0, t2);
  }
  out.encode_ns = median(enc_ns);
  out.decode_ns = median(dec_ns);
  return out;
}

double safe_div(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace

double gen_lag_p99_ms(const Session& session) {
  std::vector<double> lag;
  for (const auto& rec : session.records()) {
    if (rec.phase == Phase::kFixedRate) lag.push_back(ms_between(rec.due, rec.start));
  }
  return percentile(lag, 0.99);
}

std::vector<Metric> end_to_end_metrics(const Workload& w, const Inputs& in,
                                       const Session& session,
                                       const std::vector<double>& setup_times) {
  const auto done = completed_fixed(session);
  std::vector<double> snr;
  for (const auto* rec : done) snr.push_back(rec->snr_db);
  const double completed = static_cast<double>(done.size());
  const auto bytes = wire_bytes(in, session, false);
  return {
      {"setup_s", median(setup_times), "s"},
      {"cpu_ms_per_window", safe_div(1e3 * session.fixed_cpu_s, completed), "ms"},
      {"snr_db_mean", mean(snr), "dB"},
      {"node_uj_per_window", 1e6 * node_energy(w, in).total_j(), "uJ"},
      {"radio_bytes_per_window", static_cast<double>((in.phi->rows() * 14 + 7) / 8), "bytes"},
      {"wire_bytes_per_window", bytes.submit + bytes.result, "bytes"},
  };
}

std::vector<Metric> layer_metrics(const Workload& w, const Inputs& in, const Session& session) {
  const auto done = completed_fixed(session);
  std::vector<double> latency, encode_us, solve_ms, queue_ms, transport_ms;
  for (const auto* rec : done) {
    latency.push_back(ms_between(rec->due, rec->received));
    encode_us.push_back(rec->encode_us);
    solve_ms.push_back(rec->solve_ms);
    queue_ms.push_back(rec->e2e_ms - rec->solve_ms);
    transport_ms.push_back(ms_between(rec->start, rec->received) - rec->encode_us / 1e3 -
                           rec->e2e_ms);
  }

  // Direct solver timing on the same windows, outside the fleet.
  const auto cfg = engine_config(w);
  std::vector<double> fista_us, fista_iters;
  for (std::size_t s = 0; s < std::min<std::size_t>(64, in.sources.size()); ++s) {
    const auto t0 = Clock::now();
    const auto result = cs::fista_reconstruct(*in.phi, in.sources[s].measurements, cfg.fista);
    fista_us.push_back(1e3 * ms_between(t0, Clock::now()));
    fista_iters.push_back(result.iterations_run);
  }

  const auto energy = node_energy(w, in);
  const auto bytes = wire_bytes(in, session, true);
  const auto& tracer = session.tracer();
  const auto& pools = session.pools;
  double moved = 0.0, reshard_ms = 0.0;
  for (double m : session.moved_patients) moved += m;
  for (double ms : session.reshard_ms) reshard_ms += ms;

  return {
      {"fleet.capacity_win_per_s", session.capacity_win_per_s, "1/s"},
      {"fleet.latency_p50_ms", percentile(latency, 0.50), "ms"},
      {"fleet.latency_p99_ms", percentile(latency, 0.99), "ms"},
      {"fleet.reshard_ms", median(session.reshard_ms), "ms"},
      {"cs.encode_us", median(encode_us), "us"},
      {"cs.encode_ops", static_cast<double>(in.encode_ops.total()), "count"},
      {"cs.fista_us", median(fista_us), "us"},
      {"cs.fista_iterations", mean(fista_iters), "count"},
      {"energy.radio_uj", 1e6 * energy.radio_j, "uJ"},
      {"energy.compute_uj", 1e6 * energy.computation_j, "uJ"},
      {"energy.sampling_uj", 1e6 * energy.sampling_j, "uJ"},
      {"host.solve_ms_p50", percentile(solve_ms, 0.50), "ms"},
      {"host.solve_ms_p99", percentile(solve_ms, 0.99), "ms"},
      {"host.queue_wait_ms_p50", percentile(queue_ms, 0.50), "ms"},
      {"host.queue_wait_ms_p99", percentile(queue_ms, 0.99), "ms"},
      {"host.batch_hit_frac",
       safe_div(static_cast<double>(session.grouped_windows),
                static_cast<double>(session.engine_completed)),
       "frac"},
      {"host.pool_miss_frac",
       safe_div(static_cast<double>(pools.misses), static_cast<double>(pools.hits + pools.misses)),
       "frac"},
      {"host.pool_dropped", static_cast<double>(pools.dropped), "count"},
      {"host.cost_model_err", session.cost_model_err, "frac"},
      {"host.moved_patients", safe_div(moved, static_cast<double>(session.moved_patients.size())),
       "count"},
      {"host.drain_ms_per_moved_patient", safe_div(reshard_ms, moved), "ms"},
      {"net.client_submit_us", median(tracer.durations_us(SpanName::kSubmit)), "us"},
      {"net.client_flush_wait_us", median(tracer.durations_us(SpanName::kFlush)), "us"},
      {"net.client_poll_us", median(tracer.durations_us(SpanName::kPoll)), "us"},
      {"net.poll_empty_frac",
       safe_div(static_cast<double>(session.empty_polls), static_cast<double>(session.polls)),
       "frac"},
      {"net.wire_encode_ns", bytes.encode_ns, "ns"},
      {"net.wire_decode_ns", bytes.decode_ns, "ns"},
      {"net.submit_bytes", bytes.submit, "bytes"},
      {"net.result_bytes", bytes.result, "bytes"},
      {"net.transport_ms_p50", percentile(transport_ms, 0.50), "ms"},
      {"net.transport_ms_p99", percentile(transport_ms, 0.99), "ms"},
      {"bench.gen_lag_ms_p99", gen_lag_p99_ms(session), "ms"},
      {"bench.latency_samples", static_cast<double>(done.size()), "count"},
  };
}

bool write_trace_files(const Session& session, const std::string& prefix) {
  if (!session.tracer().write_tsv(prefix + ".spans.tsv")) return false;
  FILE* f = std::fopen((prefix + ".windows.tsv").c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "seq\tphase\tsource\tstate\tlag_ms\tencode_us\tlatency_ms\te2e_ms\tsolve_ms\n");
  const auto& records = session.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    const bool got = r.state == State::kReceived;
    std::fprintf(f, "%zu\t%d\t%u\t%d\t%.6f\t%.3f\t%.6f\t%.6f\t%.6f\n", i,
                 static_cast<int>(r.phase), r.source, static_cast<int>(r.state),
                 ms_between(r.due, r.start), r.encode_us,
                 got ? ms_between(r.due, r.received) : -1.0, r.e2e_ms, r.solve_ms);
  }
  return std::fclose(f) == 0;
}

}  // namespace fleetbench
