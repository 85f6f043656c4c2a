#include "inputs.hpp"

#include <algorithm>
#include <thread>

#include "cls/af_detect.hpp"
#include "delin/pipeline.hpp"
#include "sig/adc.hpp"
#include "sig/dataset.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace fleetbench {

using namespace wbsn;

namespace {

// Fixed workload table: names, rates and thread counts are part of the
// benchmark's contract and do not depend on the machine.  Resharding is
// measured on idle fleets in every workload.
const Workload kWorkloads[] = {
    {.name = "steady", .rate_hz = 200.0},
    {.name = "wire-bound",
     .window_samples = 128,
     .cr_percent = 75.0,
     .rate_hz = 2500.0,
     .fista_iterations = 1,
     .debias = false,
     .capacity_inflight = 256},
};

cls::AfDetector trained_af_detector() {
  // Node firmware: trained once on a fixed cohort, independent of the seed.
  sig::DatasetSpec spec;
  spec.num_records = 5;
  spec.beats_per_record = 160;
  const auto cohort = sig::make_af_dataset(spec);
  std::vector<std::vector<sig::BeatAnnotation>> training;
  for (const auto& record : cohort) training.push_back(record.beats);
  cls::AfDetector detector;
  detector.train(training, sig::kDefaultFs);
  return detector;
}

host::EngineConfig serial_config(host::EngineConfig cfg) {
  cfg.threads = 0;
  cfg.payload_pool.reset();
  cfg.progress_hook = nullptr;
  return cfg;
}

}  // namespace

std::optional<Workload> find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  return std::nullopt;
}

double deadline_ms(const Workload& w) { return cs::window_period_ms(w.window_samples); }

host::EngineConfig engine_config(const Workload& w) {
  host::EngineConfig cfg;
  cfg.threads = w.workers;
  cfg.slo.deadline_ms = deadline_ms(w);
  if (w.fista_iterations > 0) cfg.fista.max_iterations = w.fista_iterations;
  if (!w.debias) cfg.fista.debias_iterations = 0;
  return cfg;
}

std::string make_inputs(const Workload& w, std::uint64_t seed, std::size_t patients,
                        Inputs& out) {
  const sig::AdcConfig adc{};
  const cls::AfDetector detector = trained_af_detector();
  host::RecordCompressionConfig compression;
  compression.cr_percent = w.cr_percent;
  compression.window_samples = w.window_samples;
  compression.keep_reference = true;

  out.matrix_seed = cs::lead_matrix_seed(compression.matrix_seed, 0);
  sig::Rng matrix_rng(out.matrix_seed);
  out.phi = cs::SensingMatrix::make_sparse_binary(
      cs::rows_for_cr(w.cr_percent, w.window_samples), w.window_samples,
      compression.ones_per_column, matrix_rng);

  out.leads.reserve(patients);
  out.by_patient.resize(patients);
  for (std::size_t p = 0; p < patients; ++p) {
    sig::SynthConfig synth;
    synth.num_leads = 1;
    synth.noise = sig::NoiseParams::preset(sig::NoiseLevel::kLow);
    if (p % 4 == 3) {
      synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, 30},
                        {sig::RhythmEpisode::Kind::kAfib, 30},
                        {sig::RhythmEpisode::Kind::kSinus, 30}};
    } else {
      synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, 90}};
    }
    synth.record_name = "patient-" + std::to_string(p);
    sig::Rng rng(seed * 0x9E3779B97F4A7C15ULL + p + 1);
    auto record = sig::synthesize_ecg(synth, rng);

    // The node's AF pathway tags the urgent windows.
    const auto quantized = sig::quantize_leads(record.leads, adc);
    delin::PipelineConfig delin_cfg;
    delin_cfg.fs = record.fs;
    const auto delineated = delin::run_delineation_pipeline(quantized, delin_cfg);
    const auto decisions = detector.detect(delineated.beats, record.fs);
    compression.urgent_spans = cls::af_urgent_spans(decisions, delineated.beats);
    auto windows = host::compress_record(record, static_cast<std::uint32_t>(p), compression);

    out.leads.push_back(std::move(record.leads[0]));
    const std::span<const double> lead(out.leads.back());
    for (std::size_t k = 0; k < windows.size(); ++k) {
      Source src;
      src.patient = static_cast<std::uint32_t>(p);
      src.priority = windows[k].priority;
      src.raw_mv = lead.subspan(k * w.window_samples, w.window_samples);
      src.measurements = std::move(windows[k].measurements);
      src.reference = std::move(windows[k].reference);
      // The benchmark re-encodes at send time; it must reproduce the
      // record-level encode exactly, or the reference would not apply.
      dsp::OpCount ops;
      const auto again = cs::encode_window(*out.phi, src.raw_mv, adc, false, &ops);
      if (again.measurements != src.measurements) {
        return "node encode: cs::encode_window differs from host::compress_record";
      }
      out.encode_ops = ops;
      out.urgent += src.priority == cs::WindowPriority::kUrgent;
      out.by_patient[p].push_back(static_cast<std::uint32_t>(out.sources.size()));
      out.sources.push_back(std::move(src));
    }
    if (out.by_patient[p].empty()) return "input synthesis: a record shorter than one window";
  }
  return {};
}

host::CompressedWindow make_window(const Inputs& in, std::uint32_t s, std::uint32_t seq,
                                   std::vector<double> measurements) {
  const Source& src = in.sources[s];
  host::CompressedWindow window;
  window.patient_id = src.patient;
  window.window_index = seq;
  window.matrix_seed = in.matrix_seed;
  window.window_samples = static_cast<std::uint32_t>(src.raw_mv.size());
  window.ones_per_column = 4;
  window.priority = src.priority;
  window.measurements = std::move(measurements);
  return window;
}

void solve_reference(Inputs& in, const host::EngineConfig& cfg) {
  // Several serial engines side by side, one per slice of the sources; each
  // window's value depends only on its payload and the FISTA config.
  const std::size_t workers =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  const host::EngineConfig serial = serial_config(cfg);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < workers; ++t) {
    pool.emplace_back([&, t] {
      host::ReconstructionEngine engine(serial);
      for (std::size_t s = t; s < in.sources.size(); s += workers) {
        engine.submit(make_window(in, static_cast<std::uint32_t>(s),
                                  static_cast<std::uint32_t>(s), in.sources[s].measurements));
      }
      for (auto& result : engine.drain()) {
        in.sources[result.window_index].expected = std::move(result.signal);
      }
    });
  }
  for (auto& thread : pool) thread.join();
}

}  // namespace fleetbench
