// SolveCostModel — per-(window shape, solve tier) FISTA cost estimates.
//
// The deadline-shed predictor and the degrade policy both need to price a
// queued window's solve before it runs: the predictor to forecast backlog
// wait, the policy to decide whether demoting routine windows to a cheaper
// tier (higher effective CR, capped iterations — the Figure-5 trade) can
// relieve pressure that would otherwise shed whole windows.  This model
// extends the engine's historical per-(m, n) solve-EWMA table with the
// tier dimension so "solve cheaper" has a measured price, not a guess.
//
// Estimates fall back along a chain, most- to least-specific:
//
//   1. the configured override (override_ms > 0) — operator-pinned cost;
//   2. the measured EWMA for (m, n, tier) — the exact operating point;
//   3. the measured EWMA for (m, n, tier 0) scaled by `tier_scale` (the
//      tier's iteration budget as a fraction of the iterations a full
//      solve actually runs) — a tier never yet run is priced off the
//      full-fidelity measurement, because FISTA cost is linear in
//      iterations at fixed shape;
//   4. the shape-blind global EWMA, scaled the same way.
//
// Concurrency matches the table it replaces: a fixed-capacity, insert-only
// open-addressed array of atomic slots.  record() is lock-free and
// allocation-free (the solve hot path must not allocate); racy
// read-modify-writes across workers only blur an estimate.  Shapes beyond
// capacity simply fall back down the chain instead of growing the table.
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

  /// Folds one measured per-window sample (microseconds) into the
  /// (m, n, tier) EWMA and the global fallback.  alpha = 1/8.
  void record(std::uint32_t m, std::uint32_t n, std::uint8_t tier, std::uint64_t sample_us);

  /// Estimate for one solve of shape (m, n) at `tier`, in ms, along the
  /// fallback chain above.  `tier_scale` prices tiers with no
  /// measurements yet (see tier_scale()); pass 1.0 for tier 0.
  /// 0 when no signal exists at all.
  double estimate_ms(std::uint32_t m, std::uint32_t n, std::uint8_t tier,
                     double tier_scale = 1.0) const;

  /// The iteration-budget cost ratio of a tier versus the full solve:
  /// min(cap, full) / full, clamped to [0.05, 1].  1.0 when the tier caps
  /// nothing (cap == 0 or cap >= full).  The floor keeps a pathological
  /// cap from predicting near-free solves (warm-up, debias, and memory
  /// traffic don't shrink with the iteration budget).  Pass
  /// full_iterations() as `full`: FISTA's stopping test ends most full
  /// solves well before max_iterations.
  static double tier_scale(std::uint32_t iteration_cap, std::uint32_t full_iterations);

  /// Folds one full-fidelity (tier-0) solve's FISTA iteration count into
  /// the EWMA that full_iterations() reports.  alpha = 1/8.
  void record_iterations(std::uint32_t iterations);

  /// Mean FISTA iterations of a full-fidelity solve (EWMA over
  /// record_iterations); `fallback` — the configured max_iterations —
  /// until the first tier-0 solve lands.
  std::uint32_t full_iterations(std::uint32_t fallback) const;

  /// The measured (m, n, tier) EWMA in microseconds; 0 when unseen (or
  /// the table overflowed) — test/diagnostic surface.
  std::uint64_t measured_us(std::uint32_t m, std::uint32_t n, std::uint8_t tier) const;

  /// The shape-blind global EWMA in microseconds; 0 until any solve.
  std::uint64_t global_us() const { return global_us_.load(std::memory_order_relaxed); }

 private:
  // Key packing: m in the top 24 bits, n in the middle 32, tier in the low
  // 8 — (m << 40) | (n << 8) | tier.  Real fleet shapes are window sizes
  // (hundreds) and measurement counts well under 2^24; a shape that
  // doesn't fit skips the table and rides the global fallback.
  static std::uint64_t pack_key(std::uint32_t m, std::uint32_t n, std::uint8_t tier) {
    if (m >= (1u << 24)) return 0;
    return (static_cast<std::uint64_t>(m) << 40) |
           (static_cast<std::uint64_t>(n) << 8) | tier;
  }

  struct Slot {
    std::atomic<std::uint64_t> key{0};  ///< pack_key(); 0 = empty.
    std::atomic<std::uint64_t> ewma_us{0};
  };
  static constexpr std::size_t kSlots = 128;

  std::uint64_t lookup_us(std::uint64_t key) const;

  std::array<Slot, kSlots> slots_{};
  std::atomic<std::uint64_t> global_us_{0};
  std::atomic<std::uint64_t> full_iterations_{0};
};

}  // namespace wbsn::host
