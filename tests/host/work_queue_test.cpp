// The two-lane priority queue: strict urgent-before-routine pop order,
// FIFO within a lane, positional victim extraction, and concurrent
// push/pop without loss.
#include "host/work_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace wbsn::host {
namespace {

TEST(TwoLaneQueue, UrgentAlwaysPopsFirstFifoWithinLane) {
  TwoLaneWorkQueue<int> q;
  q.push(1, /*urgent=*/false);
  q.push(2, /*urgent=*/false);
  q.push(10, /*urgent=*/true);
  q.push(3, /*urgent=*/false);
  q.push(11, /*urgent=*/true);
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.lane_size(true), 2u);
  EXPECT_EQ(q.lane_size(false), 3u);

  int out = 0;
  const int expected[] = {10, 11, 1, 2, 3};
  for (const int want : expected) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, want);
  }
  EXPECT_FALSE(q.try_pop(out));
  EXPECT_TRUE(q.empty());
}

TEST(TwoLaneQueue, ExtractBestSeesPopOrderPositionsAndRemovesTheWinner) {
  TwoLaneWorkQueue<int> q;
  q.push(20, false);  // Overall position 2 (behind both urgent items).
  q.push(21, false);  // Position 3.
  q.push(10, true);   // Position 0.
  q.push(11, true);   // Position 1.

  // Record the positions the scan reports, disqualifying everything.
  std::vector<std::pair<int, std::size_t>> seen;
  const auto none = q.extract_best(
      [&](int value, std::size_t position, bool) -> std::optional<double> {
        seen.push_back({value, position});
        return std::nullopt;
      });
  EXPECT_FALSE(none.has_value());
  EXPECT_EQ(seen, (std::vector<std::pair<int, std::size_t>>{{10, 0}, {11, 1}, {20, 2}, {21, 3}}));
  EXPECT_EQ(q.size(), 4u) << "a scan with no qualifier removes nothing";

  // A routine-only scan (urgent items disqualified) still reports
  // pop-order positions (offset by the urgent lane) and picks the max score.
  auto victim = q.extract_best(
      [](int value, std::size_t position, bool urgent) -> std::optional<double> {
        if (urgent) return std::nullopt;
        EXPECT_GE(position, 2u);
        return value == 20 ? std::optional<double>(5.0) : std::optional<double>(1.0);
      });
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 20);
  EXPECT_EQ(q.size(), 3u);

  int out = 0;
  const int expected[] = {10, 11, 21};
  for (const int want : expected) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, want);
  }
}

TEST(TwoLaneQueue, ConcurrentPushPopLosesNothing) {
  TwoLaneWorkQueue<std::uint64_t> q;
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPerProducer = 2000;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        q.push((static_cast<std::uint64_t>(p) << 32) | i, i % 4 == 0);
      }
    });
  }
  std::atomic<std::uint64_t> popped{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      std::uint64_t value = 0;
      for (;;) {
        if (q.try_pop(value)) {
          popped.fetch_add(1, std::memory_order_relaxed);
        } else if (done.load(std::memory_order_acquire) && q.empty()) {
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : consumers) t.join();
  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace wbsn::host
