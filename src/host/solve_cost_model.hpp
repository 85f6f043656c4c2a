// SolveCostModel — per-window-shape FISTA cost estimates.
//
// The deadline-shed predictor and the CR-hint pressure signal both need to
// price a queued window's solve before it runs: the predictor to forecast
// backlog wait, the hints to tell when the priced backlog outgrows the
// deadline.  Solve cost scales with problem size, so the model keeps one
// EWMA per (m, n) shape.
//
// Estimates fall back along a chain, most- to least-specific:
//
//   1. the configured override (override_ms > 0) — operator-pinned cost;
//   2. the measured EWMA for (m, n) — the exact operating point;
//   3. the shape-blind global EWMA.
//
// Concurrency: a fixed-capacity, insert-only open-addressed array of
// atomic slots.  record() is lock-free and allocation-free (the solve hot
// path must not allocate); racy read-modify-writes across workers only
// blur an estimate.  Shapes beyond capacity simply fall back down the
// chain instead of growing the table.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace wbsn::host {

class SolveCostModel {
 public:
  /// Operator-pinned per-window solve cost, ms; > 0 short-circuits every
  /// measured estimate (EngineConfig::shed_solve_estimate_ms).
  double override_ms = 0.0;

  /// Folds one measured per-window sample (microseconds) into the (m, n)
  /// EWMA and the global fallback.  alpha = 1/8.
  void record(std::uint32_t m, std::uint32_t n, std::uint64_t sample_us);

  /// Estimate for one solve of shape (m, n), in ms, along the fallback
  /// chain above.  0 when no signal exists at all.
  double estimate_ms(std::uint32_t m, std::uint32_t n) const;

  /// The measured (m, n) EWMA in microseconds; 0 when unseen (or the table
  /// overflowed) — test/diagnostic surface.
  std::uint64_t measured_us(std::uint32_t m, std::uint32_t n) const;

  /// The shape-blind global EWMA in microseconds; 0 until any solve.
  std::uint64_t global_us() const { return global_us_.load(std::memory_order_relaxed); }

 private:
  // Key packing: m in the top 24 bits, n in the low 40 — (m << 40) | n.
  // Real fleet shapes are window sizes (hundreds) and measurement counts
  // well under 2^24; a shape that doesn't fit skips the table and rides
  // the global fallback.
  static std::uint64_t pack_key(std::uint32_t m, std::uint32_t n) {
    if (m >= (1u << 24)) return 0;
    return (static_cast<std::uint64_t>(m) << 40) | n;
  }

  struct Slot {
    std::atomic<std::uint64_t> key{0};  ///< pack_key(); 0 = empty.
    std::atomic<std::uint64_t> ewma_us{0};
  };
  static constexpr std::size_t kSlots = 128;

  std::uint64_t lookup_us(std::uint64_t key) const;

  std::array<Slot, kSlots> slots_{};
  std::atomic<std::uint64_t> global_us_{0};
};

}  // namespace wbsn::host
