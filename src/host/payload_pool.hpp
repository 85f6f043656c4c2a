// Pooled window payloads for the reconstruction hot path.
//
// Every CompressedWindow carries two heap-backed vectors (measurements +
// optional SNR reference) and every WindowResult carries a third (the
// reconstructed signal).  In a streaming deployment those buffers churn
// once per window forever — the dominant steady-state allocation source
// once the solver runs on an arena (cs::FistaWorkspace).  This module
// recycles them instead: one fixed-capacity freelist of buffers, checked
// out by the producer or wire decoder and by the engine at admission, and
// returned by the engine after the solve and by the consumer after poll.
//
//  * One list, no roles: a buffer recycled by one side serves an acquire
//    on the other.  Since any buffer may serve any part next (m-sized
//    measurements, n-sized references and signals), every buffer is
//    widened to the widest recycled so far, so no fill of a pooled buffer
//    allocates; each widening is a counted miss.  The widest never
//    shrinks, so pooled memory is bounded by capacity x the widest window
//    ever recycled (the wire admits up to 4096 samples).
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
// ObjectPool<T> below puts whole heap nodes on the same Freelist (the
// engine recycles its WorkItems through one).
#pragma once

#include <atomic>
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
  /// Maximum buffers the freelist retains: a measurement, a reference and
  /// a signal for each of 1024 windows.  Recycles beyond the cap free the
  /// buffer instead.
  std::size_t capacity = 3 * 1024;
};

struct PayloadPoolStats {
  std::uint64_t hits = 0;      ///< Acquires served from the freelist.
  std::uint64_t misses = 0;    ///< Allocations: empty-list acquires, widenings.
  std::uint64_t recycled = 0;  ///< Items returned to the freelist.
  std::uint64_t dropped = 0;   ///< Recycles freed because the list was full.
};

/// The freelist both pools are built on: a mutex-guarded stack of at most
/// `capacity` parked items.  acquire() on an empty list is a counted miss
/// that returns a value-initialized T (an empty vector, a null pointer);
/// recycle() past capacity is a counted drop that frees the item once the
/// lock is released.  The stack is reserved up front, so steady-state
/// acquire/recycle cycles allocate nothing.
template <typename T>
class Freelist {
 public:
  explicit Freelist(std::size_t capacity) : capacity_(capacity) { free_.reserve(capacity_); }

  T acquire() {
    std::lock_guard<std::mutex> lk(mutex_);
    if (free_.empty()) {
      ++stats_.misses;
      return T{};
    }
    T item = std::move(free_.back());
    free_.pop_back();
    ++stats_.hits;
    return item;
  }

  void recycle(T item) {
    std::lock_guard<std::mutex> lk(mutex_);
    if (free_.size() < capacity_) {
      free_.push_back(std::move(item));
      ++stats_.recycled;
    } else {
      ++stats_.dropped;
    }
  }

  /// Counts an allocation made for the list outside acquire().
  void count_miss() {
    std::lock_guard<std::mutex> lk(mutex_);
    ++stats_.misses;
  }

  /// Calls `f` on every parked item under the lock, counting a miss for
  /// each call that returns true (it allocated).
  template <typename F>
  void update_parked(F&& f) {
    std::lock_guard<std::mutex> lk(mutex_);
    for (T& item : free_) {
      if (f(item)) ++stats_.misses;
    }
  }

  PayloadPoolStats stats() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return stats_;
  }

  /// Whether a recycle now would be dropped (a hint: other threads race it).
  bool full() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return free_.size() >= capacity_;
  }

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<T> free_;
  PayloadPoolStats stats_;
};

class PayloadPool {
 public:
  explicit PayloadPool(PayloadPoolConfig cfg = {}) : free_(cfg.capacity) {}

  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  /// One buffer, empty, with room for the widest buffer recycled so far
  /// (a miss allocates that much at once).
  std::vector<double> acquire();

  /// A window shell with pooled measurement + reference buffers.  Metadata
  /// fields are default-initialized.
  CompressedWindow acquire_window();

  /// Keeps `buf` for a later acquire, widened to the widest buffer seen
  /// (a counted miss) unless it would be dropped.  A buffer that never
  /// held anything (capacity 0, e.g. an absent reference) is not kept:
  /// handed out, its first fill would allocate.
  void recycle(std::vector<double>&& buf);

  /// Returns a consumed window's payload buffers to the pool (the engine
  /// calls this once the solve no longer needs the measurements).
  void recycle(CompressedWindow&& window);

  /// Returns a polled result's signal buffer to the pool.  Callers that
  /// keep the signal just don't call this — move-out semantics.
  void recycle(WindowResult&& result);

  PayloadPoolStats stats() const { return free_.stats(); }

 private:
  Freelist<std::vector<double>> free_;
  std::atomic<std::size_t> widest_{0};  ///< Largest capacity recycled so far.
};

/// Heap nodes on the same Freelist: acquire() pops a recycled node (or
/// news one on a miss), recycle() parks it again (or deletes it past
/// capacity).  Nodes are stored as-is: callers reset any state they don't
/// want resurrected before recycling.
template <typename T>
class ObjectPool {
 public:
  explicit ObjectPool(std::size_t capacity) : free_(capacity) {}

  T* acquire() {
    std::unique_ptr<T> obj = free_.acquire();
    return obj != nullptr ? obj.release() : new T();
  }

  /// Takes ownership back.
  void recycle(T* obj) { free_.recycle(std::unique_ptr<T>(obj)); }

  PayloadPoolStats stats() const { return free_.stats(); }

 private:
  Freelist<std::unique_ptr<T>> free_;
};

}  // namespace wbsn::host
