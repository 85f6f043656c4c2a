// Turns one measured pass into named metrics.  Every percentile comes from
// the benchmark's own exact per-window samples, never from SloTracker's
// log buckets.
#pragma once

#include <string>
#include <vector>

#include "inputs.hpp"
#include "session.hpp"

namespace fleetbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The end-to-end metrics BENCHMARK.json lists, in its order.  Wall-clock
/// latency and capacity are per-layer (traced) metrics: on a shared host
/// their run-to-run spread was wider than any usable bound.
std::vector<Metric> end_to_end_metrics(const Workload& w, const Inputs& in,
                                       const Session& session,
                                       const std::vector<double>& setup_times);

/// The per-layer metrics of a traced pass.
std::vector<Metric> layer_metrics(const Workload& w, const Inputs& in, const Session& session);

/// p99 of how late the open-loop generator started each due window, ms.
double gen_lag_p99_ms(const Session& session);

/// Writes the traced pass's spans and per-window stage times as TSV files
/// named `<prefix>.spans.tsv` and `<prefix>.windows.tsv`.
bool write_trace_files(const Session& session, const std::string& prefix);

}  // namespace fleetbench
