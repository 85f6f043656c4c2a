// Workload table and seeded input synthesis for the fleet benchmark.
//
// Inputs are made from the workload seed only: a fleet of synthetic
// single-lead ECG patients (every 4th with an AF episode), each record cut
// into node windows.  The node's AF pathway (delineation -> AF detector ->
// cls::af_urgent_spans) tags the urgent windows.  Every distinct window is
// solved once by a serial reference engine under the shards' engine
// config, which is what each completed result must equal bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cs/pipeline.hpp"
#include "dsp/opcount.hpp"
#include "host/reconstruction_engine.hpp"

namespace fleetbench {

struct Workload {
  const char* name = "";
  std::size_t window_samples = 512;
  double cr_percent = 50.0;
  std::size_t shards = 2;          ///< Initial topology.
  int workers = 1;                 ///< Solving workers per shard.
  double rate_hz = 500.0;          ///< Fixed open-loop (Poisson) rate.
  int fista_iterations = 0;        ///< 0 keeps the FistaConfig default.
  bool debias = true;
  std::size_t capacity_inflight = 128;  ///< Closed-loop bound of the capacity probe.
};

/// The named workload, or nullopt.
std::optional<Workload> find_workload(const std::string& name);

/// The engine config every shard of the workload runs.
wbsn::host::EngineConfig engine_config(const Workload& w);

/// Real-time deadline of one window (its acquisition period), ms.
double deadline_ms(const Workload& w);

struct Source {
  std::uint32_t patient = 0;
  wbsn::cs::WindowPriority priority = wbsn::cs::WindowPriority::kRoutine;
  std::span<const double> raw_mv;    ///< The acquired window (node input).
  std::vector<double> measurements;  ///< Node encode output, mV.
  std::vector<double> reference;     ///< Quantized window: the SNR reference.
  std::vector<double> expected;      ///< Serial-reference reconstruction.
};

struct Inputs {
  std::vector<std::vector<double>> leads;  ///< Owns every raw_mv span.
  std::vector<Source> sources;
  std::vector<std::vector<std::uint32_t>> by_patient;  ///< Source indices.
  std::optional<wbsn::cs::SensingMatrix> phi;         ///< Node operator.
  std::uint64_t matrix_seed = 0;
  std::size_t urgent = 0;
  wbsn::dsp::OpCount encode_ops;  ///< Node ops of one window encode.

  /// Source of the i-th window of the traffic: patients round-robin, each
  /// streaming its record in order and wrapping around.
  std::uint32_t source_for(std::uint64_t i) const {
    const auto& windows = by_patient[i % by_patient.size()];
    return windows[(i / by_patient.size()) % windows.size()];
  }
};

/// Synthesizes `patients` records from `seed` and encodes them node-side.
/// Returns an empty string on success, else the named failure.
std::string make_inputs(const Workload& w, std::uint64_t seed, std::size_t patients,
                        Inputs& out);

/// Fills every Source::expected with the serial reference under `cfg`.
void solve_reference(Inputs& in, const wbsn::host::EngineConfig& cfg);

/// The wire form of source `s` as the node ships it (no SNR reference).
wbsn::host::CompressedWindow make_window(const Inputs& in, std::uint32_t s,
                                         std::uint32_t seq,
                                         std::vector<double> measurements);

}  // namespace fleetbench
