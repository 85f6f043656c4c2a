// Latency SLO tracking for the streaming reconstruction engine.
//
// Workers record one enqueue->complete latency per window into a
// lock-free log-bucketed histogram (power-of-two octaves split into 8
// sub-buckets, HdrHistogram-style, <= 12.5% relative quantile error), so
// the hot path is a handful of relaxed atomic increments — no mutex, no
// allocation.  snapshot() folds the histogram into p50/p95/p99/max/mean,
// throughput, in-flight depth, and deadline-violation counts.
//
// Counter reads in snapshot() are individually atomic but not taken at a
// single instant, so a snapshot raced against recording threads is
// approximate; once the engine is drained (quiesced) it is exact.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wbsn::host {

struct SloConfig {
  /// Enqueue->complete deadline per window; 0 disables violation counting.
  /// A natural choice is the real-time arrival period of one window
  /// (cs::window_period_ms): the decoder keeps up with live traffic iff it
  /// finishes each window before the next one lands.
  double deadline_ms = 0.0;
};

/// One coherent view of the tracker, in milliseconds.
struct SloSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadline_violations = 0;
  /// Windows dropped by deadline-aware shedding after admission, split by
  /// the victim's priority lane (the admission-time decision dropped a
  /// queued window predicted to miss instead of the new arrival).
  std::uint64_t shed_routine = 0;
  std::uint64_t shed_urgent = 0;
  /// Arrivals bounced at admission (binary backpressure: the engine was at
  /// capacity and no shed victim was available/eligible).  Rejected windows
  /// were never submitted, so they appear only here.
  std::uint64_t rejected = 0;
  std::uint64_t in_flight = 0;      ///< Submitted, not yet retrieved or shed.
  std::uint64_t max_in_flight = 0;  ///< High-water mark of in_flight.
  /// Windows destroyed by a shard crash: admitted, never retrieved, and
  /// unrecoverable (Coordinator::fail_shard).  No tracker records this — a
  /// dead shard can't — so it is filled from the coordinator's books in
  /// the fabric's aggregate snapshot and stays 0 in every per-engine
  /// view.  Crash-proof conservation: submitted == completed + shed + lost
  /// + in_flight.
  std::uint64_t lost = 0;
  /// Always 0: the engine solves one window at a time.  Kept only because
  /// the fleet benchmark still reads it (as host.batch_hit_frac); remove
  /// it together with that metric.
  std::uint64_t grouped_windows = 0;
  /// Windows completed at a degraded solve tier (cs::SolveTier::tier != 0)
  /// — demoted by the engine's DegradePolicy, or submitted pre-degraded.
  /// The closed-loop observability hook: degraded_windows / completed is
  /// the fidelity-trade rate, and the urgent lane's count must stay 0
  /// (urgent windows always keep full fidelity).
  std::uint64_t degraded_windows = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;   ///< Exact (tracked outside the histogram).
  double mean_ms = 0.0;  ///< Exact (sum tracked in integer microseconds).
  double elapsed_s = 0.0;
  double throughput_per_s = 0.0;  ///< completed / elapsed since start/reset.
  double deadline_ms = 0.0;       ///< Echo of the configured deadline.
};

/// A tracker's counters and histogram as plain (non-atomic) values — the
/// form a patient's SLO history moves in across a reshard.  `buckets` holds only
/// the non-zero histogram bins as (index, count) pairs (the histogram is
/// sparse for any real workload), and the wall-clock anchor travels as
/// `elapsed_us` since steady_clock time points are meaningless in another
/// process.  Serialized by net/wire_format as the SLO_STATE payload.
struct SloTrackerState {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t retrieved = 0;
  std::uint64_t shed_routine = 0;
  std::uint64_t shed_urgent = 0;
  std::uint64_t rejected = 0;
  std::uint64_t violations = 0;
  std::uint64_t sum_us = 0;
  std::uint64_t max_us = 0;
  std::uint64_t max_in_flight = 0;
  std::uint64_t elapsed_us = 0;  ///< Age of the tracker's throughput clock.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;  ///< Non-zero bins.

  bool empty() const {
    return submitted == 0 && completed == 0 && retrieved == 0 && shed_routine == 0 &&
           shed_urgent == 0 && rejected == 0 && violations == 0 && buckets.empty();
  }
};

class SloTracker {
 public:
  explicit SloTracker(SloConfig cfg = {}) : cfg_(cfg) { reset(); }

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Re-targets the deadline.  For trackers that cannot take a config at
  /// construction (array members); must not race recording.
  void configure(SloConfig cfg) { cfg_ = cfg; }

  /// A window entered the engine.  Thread-safe.
  void on_submit();

  /// A window finished solving, `latency_ms` after it was submitted.
  /// Thread-safe and lock-free.
  void on_complete(double latency_ms);

  /// A completed window was handed back to the caller (poll/drain).
  void on_retrieve();

  /// A submitted window was dropped by deadline-aware shedding (it leaves
  /// the in-flight population without completing).  Thread-safe.
  void on_shed(bool urgent);

  /// An arrival was bounced at admission (binary backpressure, no shed
  /// victim).  The window was never on_submit()ed.  Thread-safe.
  void on_reject();

  /// A window completed at a degraded solve tier (tier != 0).  Engine-wide
  /// observability only: not part of SloTrackerState (the SLO_STATE wire
  /// layout is frozen), so it does not migrate with a patient.  Thread-safe.
  void on_degraded();

  SloSnapshot snapshot() const;

  /// Adds `other`'s counters and latency histogram into this tracker, and
  /// adopts the earlier of the two start times (so elapsed/throughput span
  /// both).  Used by the fabric to fold per-shard trackers into one
  /// aggregate before snapshotting.  Same caveat as snapshot(): reads race
  /// concurrent recording on `other`, so an aggregate taken under traffic
  /// is approximate (exact once quiesced).  max_in_flight becomes the max
  /// of the per-tracker marks — a lower bound on the true aggregate
  /// high-water mark, since the marks need not be simultaneous.
  void merge_from(const SloTracker& other);

  /// Moves this tracker's counters and histogram into a plain-value state
  /// that can cross a process boundary — the reshard handoff of a
  /// patient's history.  Every counter is exchange(0)'d out of this
  /// tracker and into the returned state, so each count lands in exactly
  /// one place.  Counts recorded concurrently with the extraction
  /// may land on either side, but are never lost or doubled.
  SloTrackerState extract_state();

  /// Adds an extracted state into this tracker (fetch_add counters, fold
  /// histogram bins, max the maxima) and back-dates the throughput clock
  /// so it spans at least `state.elapsed_us`.  The receiving half of the
  /// cross-process handoff; absorbing an empty state is a no-op.
  void absorb_state(const SloTrackerState& state);

  /// Clears all counters and restarts the throughput clock.  Must not run
  /// concurrently with recording.
  void reset();

  double deadline_ms() const { return cfg_.deadline_ms; }

 private:
  // 8 sub-buckets per octave.  Indices 0..7 are exact (one bucket per
  // microsecond); every later octave [2^k, 2^(k+1)) is split into 8.
  static constexpr unsigned kSubBits = 3;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  // Octaves up to 2^41 us (~25 days) before the index clamps.
  static constexpr std::size_t kBuckets = kSub * 40;

  static std::size_t bucket_index(std::uint64_t us);
  static double bucket_mid_us(std::size_t index);

  SloConfig cfg_;
  std::chrono::steady_clock::time_point start_{};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> retrieved_{0};
  std::atomic<std::uint64_t> shed_routine_{0};
  std::atomic<std::uint64_t> shed_urgent_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> violations_{0};
  std::atomic<std::uint64_t> sum_us_{0};
  std::atomic<std::uint64_t> max_us_{0};
  std::atomic<std::uint64_t> max_in_flight_{0};
  std::atomic<std::uint64_t> degraded_windows_{0};
};

}  // namespace wbsn::host
