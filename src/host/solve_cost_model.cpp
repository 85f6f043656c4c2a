#include "host/solve_cost_model.hpp"

namespace wbsn::host {

namespace {

void fold(std::atomic<std::uint64_t>& ewma, std::uint64_t sample_us) {
  const std::uint64_t prev_us = ewma.load(std::memory_order_relaxed);
  ewma.store(prev_us == 0 ? sample_us : (prev_us * 7 + sample_us) / 8,
             std::memory_order_relaxed);
}

}  // namespace

void SolveCostModel::record(std::uint32_t m, std::uint32_t n, std::uint64_t sample_us) {
  fold(global_us_, sample_us);
  const std::uint64_t key = pack_key(m, n);
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

std::uint64_t SolveCostModel::measured_us(std::uint32_t m, std::uint32_t n) const {
  return lookup_us(pack_key(m, n));
}

double SolveCostModel::estimate_ms(std::uint32_t m, std::uint32_t n) const {
  if (override_ms > 0.0) return override_ms;
  if (const std::uint64_t us = lookup_us(pack_key(m, n)); us > 0) {
    return static_cast<double>(us) / 1000.0;
  }
  return static_cast<double>(global_us_.load(std::memory_order_relaxed)) / 1000.0;
}

}  // namespace wbsn::host
