#include "host/slo_tracker.hpp"

#include <bit>
#include <cmath>

namespace wbsn::host {
namespace {

// 8 sub-buckets per octave.  Indices 0..7 are exact (one bucket per
// microsecond); every later octave [2^k, 2^(k+1)) is split into 8.
constexpr unsigned kSubBits = 3;
constexpr std::size_t kSub = std::size_t{1} << kSubBits;
constexpr std::size_t kBuckets = SloTrackerState::kBuckets;
static_assert(kBuckets % kSub == 0);

std::uint64_t saturating_us(double ms) {
  const double us = ms * 1000.0;
  if (!(us > 0.0)) return 0;  // Also catches NaN.
  if (us >= 9.0e18) return std::uint64_t{9000000000000000000ULL};
  return static_cast<std::uint64_t>(us);
}

std::size_t bucket_index(std::uint64_t us) {
  if (us < kSub) return static_cast<std::size_t>(us);
  const unsigned msb = static_cast<unsigned>(std::bit_width(us)) - 1;
  const unsigned shift = msb - kSubBits;
  const std::size_t base = static_cast<std::size_t>(msb - kSubBits + 1) << kSubBits;
  const std::size_t offset = static_cast<std::size_t>(us >> shift) & (kSub - 1);
  return std::min(base + offset, kBuckets - 1);
}

double bucket_mid_us(std::size_t index) {
  if (index < kSub) return static_cast<double>(index);
  const std::size_t octave = (index >> kSubBits) - 1;
  const double lower = std::ldexp(1.0, static_cast<int>(octave + kSubBits)) +
                       std::ldexp(static_cast<double>(index & (kSub - 1)), static_cast<int>(octave));
  return lower + std::ldexp(0.5, static_cast<int>(octave));
}

/// Lifts a high-water mark to `value` if it is higher.
void raise_to(std::atomic<std::uint64_t>& mark, std::uint64_t value) {
  std::uint64_t seen = mark.load(std::memory_order_relaxed);
  while (value > seen && !mark.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

SloTrackerState& SloTrackerState::operator+=(const SloTrackerState& s) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += s.buckets[i];
  submitted += s.submitted;
  completed += s.completed;
  retrieved += s.retrieved;
  shed_routine += s.shed_routine;
  shed_urgent += s.shed_urgent;
  rejected += s.rejected;
  violations += s.violations;
  sum_us += s.sum_us;
  max_us = std::max(max_us, s.max_us);
  max_in_flight = std::max(max_in_flight, s.max_in_flight);
  elapsed_us = std::max(elapsed_us, s.elapsed_us);
  return *this;
}

SloSnapshot summarize(const SloTrackerState& s, double deadline_ms) {
  SloSnapshot snap;
  snap.submitted = s.submitted;
  snap.completed = s.completed;
  snap.deadline_violations = s.violations;
  snap.shed_routine = s.shed_routine;
  snap.shed_urgent = s.shed_urgent;
  snap.rejected = s.rejected;
  const std::uint64_t retired = s.retrieved + s.shed_routine + s.shed_urgent;
  snap.in_flight = s.submitted - std::min(retired, s.submitted);
  snap.max_in_flight = s.max_in_flight;
  snap.max_ms = static_cast<double>(s.max_us) / 1000.0;
  snap.deadline_ms = deadline_ms;

  std::uint64_t total = 0;
  for (const std::uint64_t count : s.buckets) total += count;
  if (total > 0) {
    snap.mean_ms = static_cast<double>(s.sum_us) / static_cast<double>(total) / 1000.0;
    const auto quantile = [&](double q) {
      const auto rank = static_cast<std::uint64_t>(
          std::ceil(q * static_cast<double>(total)));
      std::uint64_t seen = 0;
      for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += s.buckets[i];
        if (seen >= std::max<std::uint64_t>(rank, 1)) return bucket_mid_us(i) / 1000.0;
      }
      return snap.max_ms;
    };
    snap.p50_ms = quantile(0.50);
    snap.p95_ms = quantile(0.95);
    snap.p99_ms = quantile(0.99);
  }

  snap.elapsed_s = static_cast<double>(s.elapsed_us) / 1e6;
  snap.throughput_per_s =
      snap.elapsed_s > 0.0 ? static_cast<double>(snap.completed) / snap.elapsed_s : 0.0;
  return snap;
}

void SloTracker::on_submit() {
  const std::uint64_t submitted = submitted_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Approximate under concurrency (the counters are read at slightly
  // different instants) but exact whenever submission is single-threaded.
  const std::uint64_t retired = retrieved_.load(std::memory_order_relaxed) +
                                shed_routine_.load(std::memory_order_relaxed) +
                                shed_urgent_.load(std::memory_order_relaxed);
  raise_to(max_in_flight_, submitted - std::min(retired, submitted));
}

void SloTracker::on_complete(double latency_ms) {
  const std::uint64_t us = saturating_us(latency_ms);
  buckets_[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  raise_to(max_us_, us);
  if (cfg_.deadline_ms > 0.0 && latency_ms > cfg_.deadline_ms) {
    violations_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SloTracker::on_retrieve() { retrieved_.fetch_add(1, std::memory_order_relaxed); }

void SloTracker::on_shed(bool urgent) {
  (urgent ? shed_urgent_ : shed_routine_).fetch_add(1, std::memory_order_relaxed);
}

void SloTracker::on_reject() { rejected_.fetch_add(1, std::memory_order_relaxed); }

template <typename Self, typename Take>
SloTrackerState SloTracker::read(Self& self, Take take) {
  SloTrackerState s;
  for (std::size_t i = 0; i < kBuckets; ++i) s.buckets[i] = take(self.buckets_[i]);
  s.submitted = take(self.submitted_);
  s.completed = take(self.completed_);
  s.retrieved = take(self.retrieved_);
  s.shed_routine = take(self.shed_routine_);
  s.shed_urgent = take(self.shed_urgent_);
  s.rejected = take(self.rejected_);
  s.violations = take(self.violations_);
  s.sum_us = take(self.sum_us_);
  s.max_us = take(self.max_us_);
  s.max_in_flight = take(self.max_in_flight_);
  // Rounded up, so a tracker that has existed at all reports a nonzero age.
  const auto elapsed = std::chrono::ceil<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - self.start_);
  s.elapsed_us = static_cast<std::uint64_t>(elapsed.count());
  return s;
}

SloTrackerState SloTracker::state() const {
  return read(*this, [](const std::atomic<std::uint64_t>& field) {
    return field.load(std::memory_order_relaxed);
  });
}

SloTrackerState SloTracker::extract_state() {
  return read(*this, [](std::atomic<std::uint64_t>& field) {
    return field.exchange(0, std::memory_order_relaxed);
  });
}

void SloTracker::absorb_state(const SloTrackerState& state) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (state.buckets[i] > 0) buckets_[i].fetch_add(state.buckets[i], std::memory_order_relaxed);
  }
  submitted_.fetch_add(state.submitted, std::memory_order_relaxed);
  completed_.fetch_add(state.completed, std::memory_order_relaxed);
  retrieved_.fetch_add(state.retrieved, std::memory_order_relaxed);
  shed_routine_.fetch_add(state.shed_routine, std::memory_order_relaxed);
  shed_urgent_.fetch_add(state.shed_urgent, std::memory_order_relaxed);
  rejected_.fetch_add(state.rejected, std::memory_order_relaxed);
  violations_.fetch_add(state.violations, std::memory_order_relaxed);
  sum_us_.fetch_add(state.sum_us, std::memory_order_relaxed);
  raise_to(max_us_, state.max_us);
  raise_to(max_in_flight_, state.max_in_flight);
  // Back-date the throughput clock so elapsed covers the moved history.
  const auto imported_start =
      std::chrono::steady_clock::now() - std::chrono::microseconds(state.elapsed_us);
  if (imported_start < start_) start_ = imported_start;
}

void SloTracker::reset() {
  (void)extract_state();
  start_ = std::chrono::steady_clock::now();
}

}  // namespace wbsn::host
