#include "host/payload_pool.hpp"

#include "host/reconstruction_engine.hpp"

namespace wbsn::host {

PayloadPool::PayloadPool(PayloadPoolConfig cfg) : cfg_(cfg) {
  measurements_.reserve(cfg_.capacity);
  references_.reserve(cfg_.capacity);
  signals_.reserve(cfg_.capacity);
}

std::vector<double> PayloadPool::acquire_from(std::vector<std::vector<double>>& list) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (list.empty()) {
    ++stats_.misses;
    return {};  // The producer's first fill sizes it.
  }
  std::vector<double> buf = std::move(list.back());
  list.pop_back();
  ++stats_.hits;
  return buf;
}

void PayloadPool::recycle_to(std::vector<std::vector<double>>& list,
                             std::vector<double>&& buf) {
  buf.clear();  // Size 0, capacity kept — the whole point.
  std::lock_guard<std::mutex> lk(mutex_);
  if (list.size() < cfg_.capacity) {
    list.push_back(std::move(buf));
    ++stats_.recycled;
  } else {
    ++stats_.dropped;  // `buf` frees on scope exit.
  }
}

std::vector<double> PayloadPool::acquire_measurements() {
  return acquire_from(measurements_);
}

std::vector<double> PayloadPool::acquire_reference() {
  return acquire_from(references_);
}

std::vector<double> PayloadPool::acquire_signal() {
  return acquire_from(signals_);
}

CompressedWindow PayloadPool::acquire_window() {
  CompressedWindow window;
  window.measurements = acquire_measurements();
  window.reference = acquire_reference();
  return window;
}

void PayloadPool::recycle_measurements(std::vector<double>&& buf) {
  recycle_to(measurements_, std::move(buf));
}

void PayloadPool::recycle_reference(std::vector<double>&& buf) {
  recycle_to(references_, std::move(buf));
}

void PayloadPool::recycle_signal(std::vector<double>&& buf) {
  recycle_to(signals_, std::move(buf));
}

void PayloadPool::recycle(CompressedWindow&& window) {
  recycle_measurements(std::move(window.measurements));
  // Windows without a reference recycle an empty (capacity-0) buffer —
  // harmless: it comes back as good as a fresh miss, without the miss.
  recycle_reference(std::move(window.reference));
}

void PayloadPool::recycle(WindowResult&& result) {
  recycle_signal(std::move(result.signal));
}

PayloadPoolStats PayloadPool::stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return stats_;
}

}  // namespace wbsn::host
