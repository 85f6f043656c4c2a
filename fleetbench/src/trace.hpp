// In-memory span recorder and exact sample statistics for the fleet
// benchmark.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (the program under test is not instrumented).  A span
// has a name, the id of the window or loop iteration it belongs to, the
// index of the span that caused it (-1 for a root), and start/end times in
// nanoseconds since the run's epoch.  Recording is a vector push_back into
// a buffer reserved up front; with tracing off nothing is recorded and no
// clock is read.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace fleetbench {

using Clock = std::chrono::steady_clock;

/// Linear-interpolated percentile (q in [0, 1]) of exact samples.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

enum class SpanName : std::uint8_t {
  kLoop,        ///< One generator iteration (root).
  kNodeEncode,  ///< cs::encode_window for one due window.
  kSubmit,      ///< RoutingClient::submit_pipelined.
  kFlush,       ///< RoutingClient::flush_submits.
  kPoll,        ///< One RoutingClient::poll call.
  kReshard,     ///< RoutingClient::set_topology.
};

inline const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kLoop: return "loop";
    case SpanName::kNodeEncode: return "cs.encode_window";
    case SpanName::kSubmit: return "net.submit";
    case SpanName::kFlush: return "net.flush_submits";
    case SpanName::kPoll: return "net.poll";
    case SpanName::kReshard: return "net.set_topology";
  }
  return "?";
}

struct Span {
  SpanName name{};
  std::uint64_t id = 0;      ///< Window sequence number or loop iteration.
  std::int64_t parent = -1;  ///< Index of the causing span, -1 for a root.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch) : enabled_(enabled), epoch_(epoch) {
    if (enabled_) spans_.reserve(1u << 20);
  }

  bool enabled() const { return enabled_; }

  /// The current time when tracing, a null time point otherwise.
  Clock::time_point now() const { return enabled_ ? Clock::now() : Clock::time_point{}; }

  /// Records [start, end) and returns the span's index (-1 when off).
  std::int64_t record(SpanName name, std::uint64_t id, std::int64_t parent,
                      Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return -1;
    spans_.push_back({name, id, parent, ns(start), ns(end)});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Records [start, now).
  std::int64_t record(SpanName name, std::uint64_t id, std::int64_t parent,
                      Clock::time_point start) {
    return enabled_ ? record(name, id, parent, start, Clock::now()) : -1;
  }

  /// Opens a span that later spans name as their parent; close() ends it.
  std::int64_t open(SpanName name, std::uint64_t id, std::int64_t parent) {
    if (!enabled_) return -1;
    const auto t = Clock::now();
    return record(name, id, parent, t, t);
  }

  void close(std::int64_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = ns(Clock::now());
  }

  /// Durations in microseconds of every span called `name`.
  std::vector<double> durations_us(SpanName name) const {
    std::vector<double> out;
    for (const auto& span : spans_) {
      if (span.name == name) out.push_back(span.us());
    }
    return out;
  }

  /// Writes every span as one TSV row; false when the file cannot be written.
  bool write_tsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "index\tname\tid\tparent\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%llu\t%lld\t%lld\t%lld\n", i, to_string(s.name),
                   static_cast<unsigned long long>(s.id), static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace fleetbench
