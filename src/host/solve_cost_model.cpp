#include "host/solve_cost_model.hpp"

#include <algorithm>

namespace wbsn::host {

namespace {

void fold(std::atomic<std::uint64_t>& ewma, std::uint64_t sample_us) {
  const std::uint64_t prev_us = ewma.load(std::memory_order_relaxed);
  ewma.store(prev_us == 0 ? sample_us : (prev_us * 7 + sample_us) / 8,
             std::memory_order_relaxed);
}

}  // namespace

double SolveCostModel::tier_scale(std::uint32_t iteration_cap, std::uint32_t full_iterations) {
  if (iteration_cap == 0 || full_iterations == 0 || iteration_cap >= full_iterations) {
    return 1.0;
  }
  const double ratio =
      static_cast<double>(iteration_cap) / static_cast<double>(full_iterations);
  return std::clamp(ratio, 0.05, 1.0);
}

void SolveCostModel::record_iterations(std::uint32_t iterations) {
  fold(full_iterations_, iterations);
}

std::uint32_t SolveCostModel::full_iterations(std::uint32_t fallback) const {
  const std::uint64_t mean = full_iterations_.load(std::memory_order_relaxed);
  return mean > 0 ? static_cast<std::uint32_t>(mean) : fallback;
}

void SolveCostModel::record(std::uint32_t m, std::uint32_t n, std::uint8_t tier,
                            std::uint64_t sample_us) {
  fold(global_us_, sample_us);
  const std::uint64_t key = pack_key(m, n, tier);
  if (key == 0) return;  // Shape doesn't pack: the global EWMA carries it.
  const std::size_t start = static_cast<std::size_t>(key) % kSlots;
  for (std::size_t probe = 0; probe < kSlots; ++probe) {
    Slot& slot = slots_[(start + probe) % kSlots];
    std::uint64_t expected = 0;
    if (slot.key.load(std::memory_order_acquire) == key ||
        slot.key.compare_exchange_strong(expected, key, std::memory_order_acq_rel)) {
      if (slot.key.load(std::memory_order_acquire) != key) continue;  // Lost the race.
      fold(slot.ewma_us, sample_us);
      return;
    }
  }
  // Table full of other keys: the global EWMA carries this one.
}

std::uint64_t SolveCostModel::lookup_us(std::uint64_t key) const {
  if (key == 0) return 0;
  const std::size_t start = static_cast<std::size_t>(key) % kSlots;
  for (std::size_t probe = 0; probe < kSlots; ++probe) {
    const Slot& slot = slots_[(start + probe) % kSlots];
    const std::uint64_t slot_key = slot.key.load(std::memory_order_acquire);
    if (slot_key == key) return slot.ewma_us.load(std::memory_order_relaxed);
    if (slot_key == 0) return 0;  // Insert-only table: the probe chain ends here.
  }
  return 0;
}

std::uint64_t SolveCostModel::measured_us(std::uint32_t m, std::uint32_t n,
                                          std::uint8_t tier) const {
  return lookup_us(pack_key(m, n, tier));
}

double SolveCostModel::estimate_ms(std::uint32_t m, std::uint32_t n, std::uint8_t tier,
                                   double tier_scale) const {
  if (override_ms > 0.0) return override_ms;
  if (const std::uint64_t us = lookup_us(pack_key(m, n, tier)); us > 0) {
    return static_cast<double>(us) / 1000.0;
  }
  if (tier != 0) {
    if (const std::uint64_t us = lookup_us(pack_key(m, n, 0)); us > 0) {
      return static_cast<double>(us) / 1000.0 * tier_scale;
    }
  }
  const double scale = tier != 0 ? tier_scale : 1.0;
  return static_cast<double>(global_us_.load(std::memory_order_relaxed)) / 1000.0 * scale;
}

}  // namespace wbsn::host
