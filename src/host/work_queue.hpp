// Work queues for the host-side reconstruction engine.
//
//  * RingDeque — grow-only circular buffer with deque semantics.  Unlike
//    std::deque (which allocates a fresh block every ~64 pointer pushes
//    even at steady occupancy), its storage is a single power-of-two array
//    that doubles on overflow and never shrinks, so a queue cycling at a
//    stable depth performs zero heap allocations.  The lanes below are
//    built on it — that is what makes the engine's submit path
//    allocation-free in steady state.
//  * TwoLaneWorkQueue — two FIFO lanes (urgent ahead of routine) under one
//    mutex.  Pop order is strict priority: every urgent window drains
//    before any routine one.  The mutex buys what a ring cannot offer:
//    exact backlog depth, positional scans, and mid-queue extraction
//    (deadline-aware shed victims).  Critical
//    sections are a few pointer moves while the consumer's unit of work is
//    a millisecond-scale FISTA solve, so the lock is invisible in
//    profiles; blocking behavior stays layered on top by the engine.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace wbsn::host {

/// Grow-only circular buffer with queue semantics (push at the back, pop
/// at the front, random access and removal in pop order).  Capacity is a
/// power of two that doubles when full and never shrinks, so steady-state
/// cycling at any depth below the high-water mark allocates nothing.
/// Not thread-safe — callers lock (TwoLaneWorkQueue wraps it in a mutex).
template <typename T>
class RingDeque {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(T value) {
    reserve_one();
    buf_[(head_ + size_) & mask()] = std::move(value);
    ++size_;
  }

  T& front() { return buf_[head_]; }

  void pop_front() {
    buf_[head_] = T{};  // Drop the slot's payload (pointers: clears refs).
    head_ = (head_ + 1) & mask();
    --size_;
  }

  /// i-th element in pop order (0 = front).
  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask()]; }

  /// Removes the i-th element in pop order, shifting the shorter side.
  void erase(std::size_t i) {
    if (i < size_ - i - 1) {
      for (std::size_t j = i; j > 0; --j) (*this)[j] = std::move((*this)[j - 1]);
      pop_front();
    } else {
      for (std::size_t j = i; j + 1 < size_; ++j) (*this)[j] = std::move((*this)[j + 1]);
      buf_[(head_ + size_ - 1) & mask()] = T{};
      --size_;
    }
  }

  /// Storage high-water mark (test hook for the grow-only property).
  std::size_t capacity() const { return buf_.size(); }

 private:
  std::size_t cap() const { return buf_.size(); }
  std::size_t mask() const { return buf_.size() - 1; }

  void reserve_one() {
    if (size_ < cap()) return;
    const std::size_t next = cap() == 0 ? kInitialCapacity : cap() * 2;
    std::vector<T> grown(next);
    for (std::size_t i = 0; i < size_; ++i) grown[i] = std::move((*this)[i]);
    buf_ = std::move(grown);
    head_ = 0;
  }

  static constexpr std::size_t kInitialCapacity = 64;

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Two-lane priority work queue: urgent items always pop before routine
/// ones, FIFO within each lane.  Unbounded (admission is the engine's
/// in-flight gate, not the container); thread-safe under one mutex.
/// Lanes are RingDeques, so cycling at a steady depth never allocates.
template <typename T>
class TwoLaneWorkQueue {
 public:
  TwoLaneWorkQueue() = default;
  TwoLaneWorkQueue(const TwoLaneWorkQueue&) = delete;
  TwoLaneWorkQueue& operator=(const TwoLaneWorkQueue&) = delete;

  void push(T value, bool urgent) {
    std::lock_guard<std::mutex> lk(mutex_);
    lane(urgent).push_back(std::move(value));
  }

  bool try_pop(T& out) {
    std::lock_guard<std::mutex> lk(mutex_);
    for (auto* q : {&urgent_, &routine_}) {
      if (!q->empty()) {
        out = std::move(q->front());
        q->pop_front();
        return true;
      }
    }
    return false;
  }

  /// Removes and returns the queued item maximizing `score`, considering
  /// the routine lane and — when `include_urgent` — the urgent lane too.
  /// `score(item, position, urgent)` returns std::nullopt to disqualify;
  /// `position` is the item's place in overall pop order (urgent lane
  /// first), which is what a wait-time predictor needs.  Returns nullopt
  /// when no item qualifies.  Used to extract deadline-shed victims.
  template <typename ScoreFn>
  std::optional<T> extract_best(ScoreFn&& score, bool include_urgent) {
    std::lock_guard<std::mutex> lk(mutex_);
    RingDeque<T>* best_lane = nullptr;
    std::size_t best_index = 0;
    double best_score = 0.0;
    const auto scan = [&](RingDeque<T>& q, bool urgent, std::size_t base) {
      for (std::size_t i = 0; i < q.size(); ++i) {
        const auto s = score(q[i], base + i, urgent);
        if (!s.has_value()) continue;
        if (best_lane == nullptr || *s > best_score) {
          best_lane = &q;
          best_index = i;
          best_score = *s;
        }
      }
    };
    if (include_urgent) scan(urgent_, true, 0);
    scan(routine_, false, urgent_.size());
    if (best_lane == nullptr) return std::nullopt;
    T out = std::move((*best_lane)[best_index]);
    best_lane->erase(best_index);
    return out;
  }

  /// Visits every queued routine-lane item in pop order under the queue
  /// mutex.  `fn(item)` may mutate the item in place but must not enqueue,
  /// dequeue, or block.  Used by the degrade policy to demote queued
  /// routine windows to a cheaper solve tier; the urgent lane is
  /// deliberately unreachable from here (urgent windows keep full
  /// fidelity).
  template <typename Fn>
  void for_each_routine(Fn&& fn) {
    std::lock_guard<std::mutex> lk(mutex_);
    for (std::size_t i = 0; i < routine_.size(); ++i) fn(routine_[i]);
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return urgent_.size() + routine_.size();
  }

  std::size_t lane_size(bool urgent) const {
    std::lock_guard<std::mutex> lk(mutex_);
    return urgent ? urgent_.size() : routine_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  RingDeque<T>& lane(bool urgent) { return urgent ? urgent_ : routine_; }

  mutable std::mutex mutex_;
  RingDeque<T> urgent_;
  RingDeque<T> routine_;
};

}  // namespace wbsn::host
