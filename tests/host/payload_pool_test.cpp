// PayloadPool / ObjectPool semantics, and the end-to-end recycling
// contract through the engine and fabric: buffers checked out at submit
// travel by move (pointer identity — never copied), come back to the pool
// after the solve, and the same heap blocks serve the next window, in
// whatever part of it the one freelist hands them to.
// Exhaustion must degrade to counted plain allocation, never block, and a
// pool shared through EngineConfig must survive a fabric resize because
// every rebuilt shard inherits the same object.
#include "host/payload_pool.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "host/reconstruction_engine.hpp"
#include "host/reconstruction_fabric.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace wbsn::host {
namespace {

std::vector<CompressedWindow> patient_windows(std::uint32_t patient_id, int beats) {
  sig::SynthConfig synth;
  synth.num_leads = 1;
  synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats}};
  sig::Rng rng(0x900D0000ULL + patient_id);
  const auto record = synthesize_ecg(synth, rng);

  RecordCompressionConfig compression;
  compression.window_samples = 128;
  compression.cr_percent = 60.0;
  return compress_record(record, patient_id, compression);
}

/// Copies a template's payload into a pooled shell (the producer idiom).
CompressedWindow pooled_copy(PayloadPool& pool, const CompressedWindow& src) {
  CompressedWindow window = pool.acquire_window();
  window.patient_id = src.patient_id;
  window.window_index = src.window_index;
  window.matrix_seed = src.matrix_seed;
  window.window_samples = src.window_samples;
  window.ones_per_column = src.ones_per_column;
  window.priority = src.priority;
  window.measurements.assign(src.measurements.begin(), src.measurements.end());
  window.reference.assign(src.reference.begin(), src.reference.end());
  return window;
}

TEST(PayloadPool, RoundTripReturnsTheSameBuffer) {
  PayloadPool pool;
  auto buf = pool.acquire();
  buf.resize(64, 1.5);
  const double* data = buf.data();
  pool.recycle(std::move(buf));

  auto again = pool.acquire();
  EXPECT_EQ(again.data(), data);      // The exact heap block came back.
  EXPECT_TRUE(again.empty());          // Cleared...
  EXPECT_GE(again.capacity(), 64u);    // ...but capacity-warm.

  const auto stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.recycled, 1u);
  EXPECT_EQ(stats.dropped, 0u);
}

// Any buffer may serve any part next, so every buffer the pool hands out
// has room for the widest it has seen: an n-sample fill never allocates.
TEST(PayloadPool, BuffersWidenToTheWidestSeen) {
  PayloadPool pool;
  pool.recycle(std::vector<double>(32, 0.0));
  pool.recycle(std::vector<double>(128, 0.0));  // Widens the parked 32.
  pool.recycle(std::vector<double>(64, 0.0));   // Widened before it is parked.
  EXPECT_EQ(pool.stats().misses, 2u);

  // Three hits, then a miss.
  for (int i = 0; i < 4; ++i) {
    auto buf = pool.acquire();
    EXPECT_TRUE(buf.empty());
    EXPECT_GE(buf.capacity(), 128u);
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);  // Each widening is an allocation, as is the miss.
}

TEST(PayloadPool, ExhaustionDegradesToCountedAllocation) {
  PayloadPoolConfig cfg;
  cfg.capacity = 2;
  PayloadPool pool(cfg);

  // Three recycles into a two-slot freelist: the third is dropped (freed).
  for (int i = 0; i < 3; ++i) {
    std::vector<double> buf(16, 0.0);
    pool.recycle(std::move(buf));
  }
  auto stats = pool.stats();
  EXPECT_EQ(stats.recycled, 2u);
  EXPECT_EQ(stats.dropped, 1u);

  // Three acquires from those two slots: the third is a fresh allocation
  // (a miss), handed out without blocking.
  auto a = pool.acquire();
  auto b = pool.acquire();
  auto c = pool.acquire();
  stats = pool.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  c.resize(1);  // Still a perfectly usable vector.
  EXPECT_EQ(c.size(), 1u);
}

TEST(PayloadPool, WindowAndResultRecyclersKeepEveryWarmBuffer) {
  PayloadPool pool;
  CompressedWindow window = pool.acquire_window();
  window.measurements.resize(32);
  window.reference.resize(128);
  pool.recycle(std::move(window));

  WindowResult result;
  result.signal.resize(128);
  pool.recycle(std::move(result));
  EXPECT_EQ(pool.stats().recycled, 3u);  // measurements + reference + signal.

  // A reference-less window (the production shape) returns its measurement
  // buffer only: its capacity-0 reference, handed out later, would
  // allocate on its first fill.
  CompressedWindow bare;
  bare.measurements.resize(32);
  pool.recycle(std::move(bare));
  const auto stats = pool.stats();
  EXPECT_EQ(stats.recycled, 4u);
  EXPECT_EQ(stats.dropped, 0u);
  for (int i = 0; i < 4; ++i) EXPECT_GE(pool.acquire().capacity(), 128u);
  EXPECT_EQ(pool.stats().hits, 4u);
}

// The end-to-end move contract: the measurement buffer the producer filled
// travels through submit -> queue -> solve untouched (no copy anywhere on
// the path), is recycled by the engine after the solve, and the very same
// heap block serves the producer's next acquire.
TEST(PayloadPool, MeasurementBufferSurvivesSubmitSolvePollByPointerIdentity) {
  auto pool = std::make_shared<PayloadPool>();
  EngineConfig cfg;
  cfg.payload_pool = pool;
  ReconstructionEngine engine(cfg);

  const auto traffic = patient_windows(7, 3);
  ASSERT_GE(traffic.size(), 2u);
  // A warm pool (the steady state): three buffers as wide as a window, so
  // no recycle below has to widen, and reallocate, the block it parks.
  for (int i = 0; i < 3; ++i) pool->recycle(std::vector<double>(traffic[0].window_samples));

  CompressedWindow first = pooled_copy(*pool, traffic[0]);
  const double* measurement_block = first.measurements.data();
  ASSERT_NE(measurement_block, nullptr);

  ASSERT_TRUE(engine.try_submit(std::move(first)).has_value());
  auto result = engine.poll();
  ASSERT_TRUE(result.has_value());
  pool->recycle(std::move(*result));

  // The engine recycled the measurement buffer after the solve: the pool
  // again holds three blocks (measurements, reference, signal), the
  // identical measurement block among them — which is only possible if
  // nothing on the submit path copied it.
  EXPECT_EQ(pool->stats().recycled, 6u);
  std::vector<std::vector<double>> parked(3);
  std::set<const double*> parked_blocks;
  for (auto& buf : parked) {
    buf = pool->acquire();
    parked_blocks.insert(buf.data());
  }
  EXPECT_EQ(parked_blocks.count(measurement_block), 1u);
  EXPECT_EQ(pool->stats().misses, 0u);
  for (auto& buf : parked) pool->recycle(std::move(buf));

  CompressedWindow second = pooled_copy(*pool, traffic[1]);

  ASSERT_TRUE(engine.try_submit(std::move(second)).has_value());
  auto second_result = engine.poll();
  ASSERT_TRUE(second_result.has_value());

  // Keeping a result is just not recycling it — move-out semantics.
  std::vector<double> kept = std::move(second_result->signal);
  EXPECT_FALSE(kept.empty());
}

// Steady-state cycling: after the first lap primes the freelist, every
// subsequent lap's acquires are hits drawn from a fixed set of buffers.
TEST(PayloadPool, SteadyStateCyclesAFixedBufferSet) {
  auto pool = std::make_shared<PayloadPool>();
  EngineConfig cfg;
  cfg.payload_pool = pool;
  ReconstructionEngine engine(cfg);

  const auto traffic = patient_windows(3, 4);
  ASSERT_GE(traffic.size(), 3u);

  std::set<const double*> blocks_seen;
  PayloadPoolStats warm;
  for (int lap = 0; lap < 4; ++lap) {
    if (lap == 1) warm = pool->stats();
    for (const auto& tmpl : traffic) {
      CompressedWindow window = pooled_copy(*pool, tmpl);
      if (lap > 0) {
        blocks_seen.insert(window.measurements.data());
        blocks_seen.insert(window.reference.data());
      }
      ASSERT_TRUE(engine.try_submit(std::move(window)).has_value());
      auto result = engine.poll();
      ASSERT_TRUE(result.has_value());
      if (lap > 0) blocks_seen.insert(result->signal.data());
      pool->recycle(std::move(*result));
    }
  }
  // Submit-then-poll in lockstep keeps exactly one window in flight: its
  // measurements, its reference and its signal.  The buffers trade parts
  // from window to window, but after the first lap the same three blocks
  // serve every one.
  EXPECT_EQ(blocks_seen.size(), 3u);

  // The first window's three acquires missed, and the first measurement
  // buffer (m wide) was widened once, when the first n-wide buffer came
  // back.  After that, only hits.
  EXPECT_EQ(warm.misses, 4u);
  const auto stats = pool->stats();
  EXPECT_GT(stats.hits, warm.hits);
  EXPECT_EQ(stats.misses, warm.misses);
  EXPECT_EQ(stats.dropped, 0u);
}

// A fabric resize rebuilds engines; they must inherit the same pool
// object through EngineConfig::payload_pool, so recycling continues across
// the epoch flip (no leaked buffers, no second pool).
TEST(PayloadPool, PoolSurvivesFabricResize) {
  auto pool = std::make_shared<PayloadPool>();
  FabricConfig cfg;
  cfg.shards = 2;
  cfg.engine.payload_pool = pool;
  ReconstructionFabric fabric(cfg);

  const auto traffic = patient_windows(11, 4);
  ASSERT_GE(traffic.size(), 4u);

  const auto run_wave = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      fabric.submit(pooled_copy(*pool, traffic[i]));
    }
    std::size_t polled = 0;
    while (polled < end - begin) {
      if (auto result = fabric.poll()) {
        pool->recycle(std::move(*result));
        ++polled;
      }
    }
  };

  run_wave(0, 2);
  const auto before = pool->stats();
  const auto report = fabric.resize(3);
  EXPECT_EQ(report.shards_after, 3u);

  run_wave(2, traffic.size());
  const auto after = pool->stats();
  // The post-resize wave kept recycling into — and hitting — the same
  // pool, through engines constructed during the resize.
  EXPECT_GT(after.recycled, before.recycled);
  EXPECT_GT(after.hits, before.hits);
}

/// Counts every copy/move so a test can assert a code path did neither.
struct CopyCounter {
  static int copies;
  static int moves;
  int value = 0;
  CopyCounter() = default;
  CopyCounter(const CopyCounter& other) : value(other.value) { ++copies; }
  CopyCounter& operator=(const CopyCounter& other) {
    value = other.value;
    ++copies;
    return *this;
  }
  CopyCounter(CopyCounter&& other) noexcept : value(other.value) { ++moves; }
  CopyCounter& operator=(CopyCounter&& other) noexcept {
    value = other.value;
    ++moves;
    return *this;
  }
};
int CopyCounter::copies = 0;
int CopyCounter::moves = 0;

// ObjectPool must hand nodes around strictly by pointer: a recycled node
// is returned as-is (same address, zero copies/moves of T), and capacity
// overflow deletes instead of growing.
TEST(ObjectPool, RecyclesNodesByPointerWithoutCopies) {
  CopyCounter::copies = 0;
  CopyCounter::moves = 0;
  ObjectPool<CopyCounter> pool(1);

  CopyCounter* node = pool.acquire();
  node->value = 42;
  pool.recycle(node);
  CopyCounter* again = pool.acquire();
  EXPECT_EQ(again, node);        // Same allocation back.
  EXPECT_EQ(again->value, 42);   // Stored as-is: state is the caller's job.

  CopyCounter* extra = pool.acquire();  // Freelist empty: a counted miss.
  EXPECT_NE(extra, nullptr);
  pool.recycle(again);
  pool.recycle(extra);  // Past capacity 1: deleted, counted as a drop.

  const auto stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.recycled, 2u);  // `node` parked twice, once per lap.
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(CopyCounter::copies, 0);
  EXPECT_EQ(CopyCounter::moves, 0);
}

}  // namespace
}  // namespace wbsn::host
