#include "host/payload_pool.hpp"

#include "host/reconstruction_engine.hpp"

namespace wbsn::host {

CompressedWindow PayloadPool::acquire_window() {
  CompressedWindow window;
  window.measurements = acquire();
  window.reference = acquire();
  return window;
}

std::vector<double> PayloadPool::acquire() {
  std::vector<double> buf = free_.acquire();
  const std::size_t widest = widest_.load(std::memory_order_relaxed);
  // A miss (counted) allocates the full width now; so does a hit parked
  // while another thread was raising the widest.
  if (buf.capacity() > 0 && buf.capacity() < widest) free_.count_miss();
  buf.reserve(widest);
  return buf;
}

void PayloadPool::recycle(std::vector<double>&& buf) {
  const std::size_t width = buf.capacity();
  if (width == 0) return;
  buf.clear();  // Size 0, capacity kept — the whole point.
  std::size_t widest = widest_.load(std::memory_order_relaxed);
  while (width > widest && !widest_.compare_exchange_weak(widest, width)) {
  }
  if (width > widest) {
    // Raised the widest (rare): widen the parked buffers now, so none of
    // them surfaces narrow long after warm-up.
    free_.update_parked([width](std::vector<double>& parked) {
      const bool narrow = parked.capacity() < width;
      parked.reserve(width);
      return narrow;
    });
  } else if (width < widest && !free_.full()) {  // Not if it would be dropped.
    buf.reserve(widest);
    free_.count_miss();
  }
  free_.recycle(std::move(buf));
}

void PayloadPool::recycle(CompressedWindow&& window) {
  recycle(std::move(window.measurements));
  recycle(std::move(window.reference));
}

void PayloadPool::recycle(WindowResult&& result) {
  recycle(std::move(result.signal));
}

}  // namespace wbsn::host
