// Pooled window payloads for the reconstruction hot path.
//
// Every CompressedWindow carries two heap-backed vectors (measurements +
// optional SNR reference) and every WindowResult carries a third (the
// reconstructed signal).  In a streaming deployment those buffers churn
// once per window forever — the dominant steady-state allocation source
// once the solver runs on an arena (cs::FistaWorkspace).  This module
// recycles them instead: fixed-capacity freelists of buffers, checked out
// by the producer at submit time and returned by the engine after the
// solve (measurement side) and by the consumer after poll (signal side).
// The same discipline lilliput applies to its framebuffers: allocate
// once, swap per op, never per request.
//
//  * Exhaustion degrades, never blocks: an empty freelist hands out a
//    fresh allocation (counted as a miss), an over-capacity recycle frees
//    the buffer (counted as a drop).  The pool bounds pooled memory, not
//    throughput.
//  * Callers that want to keep a result simply don't recycle it — buffers
//    are plain std::vector<double>s, owned by whoever holds them, so
//    nothing leaks or double-frees when a window dies with its engine, is
//    shed, or crosses a fabric reshard handoff.
//  * Thread-safe (one mutex; critical sections are a pointer swap).
//    Shared between producers, engines, and shards via shared_ptr —
//    EngineConfig::payload_pool survives the fabric's resize() because
//    every rebuilt engine inherits the same pool object.
//
// ObjectPool<T> below is the same freelist discipline for whole nodes
// (the engine recycles its WorkItems through one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace wbsn::host {

struct CompressedWindow;
struct WindowResult;

struct PayloadPoolConfig {
  /// Maximum buffers retained per freelist (measurements / references /
  /// signals each).  Recycles beyond the cap free the buffer instead.
  std::size_t capacity = 1024;
};

struct PayloadPoolStats {
  std::uint64_t hits = 0;      ///< Acquires served from a freelist.
  std::uint64_t misses = 0;    ///< Acquires that had to allocate.
  std::uint64_t recycled = 0;  ///< Buffers returned to a freelist.
  std::uint64_t dropped = 0;   ///< Recycles freed because the list was full.
};

class PayloadPool {
 public:
  explicit PayloadPool(PayloadPoolConfig cfg = {});

  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  /// One buffer, role-keyed so each freelist's capacities stay stable
  /// (measurements are m-sized, references/signals n-sized — mixing them
  /// would re-grow buffers forever).
  std::vector<double> acquire_measurements();
  std::vector<double> acquire_reference();
  std::vector<double> acquire_signal();

  /// A window shell with pooled measurement + reference buffers (cleared,
  /// capacity warm).  Metadata fields are default-initialized.
  CompressedWindow acquire_window();

  void recycle_measurements(std::vector<double>&& buf);
  void recycle_reference(std::vector<double>&& buf);
  void recycle_signal(std::vector<double>&& buf);

  /// Returns a consumed window's payload buffers to the pool (the engine
  /// calls this once the solve no longer needs the measurements).
  void recycle(CompressedWindow&& window);

  /// Returns a polled result's signal buffer to the pool.  Callers that
  /// keep the signal just don't call this — move-out semantics.
  void recycle(WindowResult&& result);

  PayloadPoolStats stats() const;
  const PayloadPoolConfig& config() const { return cfg_; }

 private:
  std::vector<double> acquire_from(std::vector<std::vector<double>>& list);
  void recycle_to(std::vector<std::vector<double>>& list, std::vector<double>&& buf);

  PayloadPoolConfig cfg_;
  mutable std::mutex mutex_;
  std::vector<std::vector<double>> measurements_;
  std::vector<std::vector<double>> references_;
  std::vector<std::vector<double>> signals_;
  PayloadPoolStats stats_;
};

/// Fixed-capacity freelist of heap nodes: acquire() pops a recycled node
/// (or news one on a miss), recycle() pushes it back (or deletes it past
/// capacity).  The freelist vector is reserved up front, so steady-state
/// acquire/recycle cycles allocate nothing.  Thread-safe.
template <typename T>
class ObjectPool {
 public:
  explicit ObjectPool(std::size_t capacity) : capacity_(capacity) {
    free_.reserve(capacity_);
  }

  ~ObjectPool() {
    for (T* obj : free_) delete obj;
  }

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  T* acquire() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (!free_.empty()) {
        T* obj = free_.back();
        free_.pop_back();
        ++hits_;
        return obj;
      }
      ++misses_;
    }
    return new T();
  }

  /// Takes ownership back.  The node is stored as-is: callers reset any
  /// state they don't want resurrected before recycling.
  void recycle(T* obj) {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (free_.size() < capacity_) {
        free_.push_back(obj);
        ++recycled_;
        return;
      }
      ++dropped_;
    }
    delete obj;
  }

  PayloadPoolStats stats() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return {hits_, misses_, recycled_, dropped_};
  }

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<T*> free_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t recycled_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace wbsn::host
