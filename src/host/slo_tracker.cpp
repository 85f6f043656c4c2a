#include "host/slo_tracker.hpp"

#include <algorithm>
#include <cmath>

namespace wbsn::host {
namespace {

std::uint64_t saturating_us(double ms) {
  const double us = ms * 1000.0;
  if (!(us > 0.0)) return 0;  // Also catches NaN.
  if (us >= 9.0e18) return std::uint64_t{9000000000000000000ULL};
  return static_cast<std::uint64_t>(us);
}

}  // namespace

std::size_t SloTracker::bucket_index(std::uint64_t us) {
  if (us < kSub) return static_cast<std::size_t>(us);
  const unsigned msb = static_cast<unsigned>(std::bit_width(us)) - 1;
  const unsigned shift = msb - kSubBits;
  const std::size_t base = static_cast<std::size_t>(msb - kSubBits + 1) << kSubBits;
  const std::size_t offset = static_cast<std::size_t>(us >> shift) & (kSub - 1);
  return std::min(base + offset, kBuckets - 1);
}

double SloTracker::bucket_mid_us(std::size_t index) {
  if (index < kSub) return static_cast<double>(index);
  const std::size_t octave = (index >> kSubBits) - 1;
  const double lower = std::ldexp(1.0, static_cast<int>(octave + kSubBits)) +
                       std::ldexp(static_cast<double>(index & (kSub - 1)), static_cast<int>(octave));
  return lower + std::ldexp(0.5, static_cast<int>(octave));
}

void SloTracker::on_submit() {
  const std::uint64_t submitted = submitted_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Approximate under concurrency (the counters are read at slightly
  // different instants) but exact whenever submission is single-threaded.
  const std::uint64_t retired = retrieved_.load(std::memory_order_relaxed) +
                                shed_routine_.load(std::memory_order_relaxed) +
                                shed_urgent_.load(std::memory_order_relaxed);
  const std::uint64_t depth = submitted - std::min(retired, submitted);
  std::uint64_t seen = max_in_flight_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_in_flight_.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
  }
}

void SloTracker::on_complete(double latency_ms) {
  const std::uint64_t us = saturating_us(latency_ms);
  buckets_[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = max_us_.load(std::memory_order_relaxed);
  while (us > seen && !max_us_.compare_exchange_weak(seen, us, std::memory_order_relaxed)) {
  }
  if (cfg_.deadline_ms > 0.0 && latency_ms > cfg_.deadline_ms) {
    violations_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SloTracker::on_retrieve() { retrieved_.fetch_add(1, std::memory_order_relaxed); }

void SloTracker::on_shed(bool urgent) {
  (urgent ? shed_urgent_ : shed_routine_).fetch_add(1, std::memory_order_relaxed);
}

void SloTracker::on_reject() { rejected_.fetch_add(1, std::memory_order_relaxed); }

void SloTracker::on_degraded() {
  degraded_windows_.fetch_add(1, std::memory_order_relaxed);
}

void SloTracker::merge_from(const SloTracker& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t count = other.buckets_[i].load(std::memory_order_relaxed);
    if (count > 0) buckets_[i].fetch_add(count, std::memory_order_relaxed);
  }
  submitted_.fetch_add(other.submitted_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  completed_.fetch_add(other.completed_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  retrieved_.fetch_add(other.retrieved_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  shed_routine_.fetch_add(other.shed_routine_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  shed_urgent_.fetch_add(other.shed_urgent_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  rejected_.fetch_add(other.rejected_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  violations_.fetch_add(other.violations_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  sum_us_.fetch_add(other.sum_us_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  degraded_windows_.fetch_add(other.degraded_windows_.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
  const std::uint64_t other_max = other.max_us_.load(std::memory_order_relaxed);
  std::uint64_t seen = max_us_.load(std::memory_order_relaxed);
  while (other_max > seen &&
         !max_us_.compare_exchange_weak(seen, other_max, std::memory_order_relaxed)) {
  }
  const std::uint64_t other_depth = other.max_in_flight_.load(std::memory_order_relaxed);
  seen = max_in_flight_.load(std::memory_order_relaxed);
  while (other_depth > seen &&
         !max_in_flight_.compare_exchange_weak(seen, other_depth, std::memory_order_relaxed)) {
  }
  if (other.start_ < start_) start_ = other.start_;
}

SloTrackerState SloTracker::extract_state() {
  SloTrackerState state;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t count = buckets_[i].exchange(0, std::memory_order_relaxed);
    if (count > 0) state.buckets.emplace_back(static_cast<std::uint32_t>(i), count);
  }
  state.submitted = submitted_.exchange(0, std::memory_order_relaxed);
  state.completed = completed_.exchange(0, std::memory_order_relaxed);
  state.retrieved = retrieved_.exchange(0, std::memory_order_relaxed);
  state.shed_routine = shed_routine_.exchange(0, std::memory_order_relaxed);
  state.shed_urgent = shed_urgent_.exchange(0, std::memory_order_relaxed);
  state.rejected = rejected_.exchange(0, std::memory_order_relaxed);
  state.violations = violations_.exchange(0, std::memory_order_relaxed);
  state.sum_us = sum_us_.exchange(0, std::memory_order_relaxed);
  state.max_us = max_us_.exchange(0, std::memory_order_relaxed);
  state.max_in_flight = max_in_flight_.exchange(0, std::memory_order_relaxed);
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  state.elapsed_us = elapsed.count() > 0
                         ? static_cast<std::uint64_t>(
                               std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                                   .count())
                         : 0;
  return state;
}

void SloTracker::absorb_state(const SloTrackerState& state) {
  for (const auto& [index, count] : state.buckets) {
    if (index < kBuckets && count > 0) {
      buckets_[index].fetch_add(count, std::memory_order_relaxed);
    }
  }
  submitted_.fetch_add(state.submitted, std::memory_order_relaxed);
  completed_.fetch_add(state.completed, std::memory_order_relaxed);
  retrieved_.fetch_add(state.retrieved, std::memory_order_relaxed);
  shed_routine_.fetch_add(state.shed_routine, std::memory_order_relaxed);
  shed_urgent_.fetch_add(state.shed_urgent, std::memory_order_relaxed);
  rejected_.fetch_add(state.rejected, std::memory_order_relaxed);
  violations_.fetch_add(state.violations, std::memory_order_relaxed);
  sum_us_.fetch_add(state.sum_us, std::memory_order_relaxed);
  std::uint64_t seen = max_us_.load(std::memory_order_relaxed);
  while (state.max_us > seen &&
         !max_us_.compare_exchange_weak(seen, state.max_us, std::memory_order_relaxed)) {
  }
  seen = max_in_flight_.load(std::memory_order_relaxed);
  while (state.max_in_flight > seen &&
         !max_in_flight_.compare_exchange_weak(seen, state.max_in_flight,
                                               std::memory_order_relaxed)) {
  }
  // Back-date the throughput clock so elapsed covers the moved history.
  const auto imported_start =
      std::chrono::steady_clock::now() - std::chrono::microseconds(state.elapsed_us);
  if (imported_start < start_) start_ = imported_start;
}

SloSnapshot SloTracker::snapshot() const {
  SloSnapshot snap;
  snap.submitted = submitted_.load(std::memory_order_relaxed);
  snap.completed = completed_.load(std::memory_order_relaxed);
  snap.deadline_violations = violations_.load(std::memory_order_relaxed);
  snap.shed_routine = shed_routine_.load(std::memory_order_relaxed);
  snap.shed_urgent = shed_urgent_.load(std::memory_order_relaxed);
  snap.rejected = rejected_.load(std::memory_order_relaxed);
  snap.degraded_windows = degraded_windows_.load(std::memory_order_relaxed);
  const std::uint64_t retired = retrieved_.load(std::memory_order_relaxed) +
                                snap.shed_routine + snap.shed_urgent;
  snap.in_flight = snap.submitted - std::min(retired, snap.submitted);
  snap.max_in_flight = max_in_flight_.load(std::memory_order_relaxed);
  snap.max_ms = static_cast<double>(max_us_.load(std::memory_order_relaxed)) / 1000.0;
  snap.deadline_ms = cfg_.deadline_ms;

  std::array<std::uint64_t, kBuckets> counts;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total > 0) {
    snap.mean_ms = static_cast<double>(sum_us_.load(std::memory_order_relaxed)) /
                   static_cast<double>(total) / 1000.0;
    const auto quantile = [&](double q) {
      const auto rank = static_cast<std::uint64_t>(
          std::ceil(q * static_cast<double>(total)));
      std::uint64_t seen = 0;
      for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += counts[i];
        if (seen >= std::max<std::uint64_t>(rank, 1)) return bucket_mid_us(i) / 1000.0;
      }
      return snap.max_ms;
    };
    snap.p50_ms = quantile(0.50);
    snap.p95_ms = quantile(0.95);
    snap.p99_ms = quantile(0.99);
  }

  snap.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  snap.throughput_per_s =
      snap.elapsed_s > 0.0 ? static_cast<double>(snap.completed) / snap.elapsed_s : 0.0;
  return snap;
}

void SloTracker::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  submitted_.store(0, std::memory_order_relaxed);
  completed_.store(0, std::memory_order_relaxed);
  retrieved_.store(0, std::memory_order_relaxed);
  shed_routine_.store(0, std::memory_order_relaxed);
  shed_urgent_.store(0, std::memory_order_relaxed);
  rejected_.store(0, std::memory_order_relaxed);
  violations_.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
  max_us_.store(0, std::memory_order_relaxed);
  max_in_flight_.store(0, std::memory_order_relaxed);
  degraded_windows_.store(0, std::memory_order_relaxed);
  start_ = std::chrono::steady_clock::now();
}

}  // namespace wbsn::host
