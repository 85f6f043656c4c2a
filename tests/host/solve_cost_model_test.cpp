// SolveCostModel unit surface: the (m, n) EWMA table the shed predictor
// and the CR-hint pressure signal price solves with.  Pins the fallback
// chain (override > exact shape > global) and the EWMA fold — a shed or
// hint decision is only as sound as the price it is handed.
#include <gtest/gtest.h>

#include "host/solve_cost_model.hpp"

namespace wbsn::host {
namespace {

TEST(SolveCostModel, EmptyModelRefusesToGuess) {
  SolveCostModel model;
  EXPECT_EQ(model.estimate_ms(256, 512), 0.0);
  EXPECT_EQ(model.measured_us(256, 512), 0u);
  EXPECT_EQ(model.global_us(), 0u);
}

TEST(SolveCostModel, FallbackChainMostToLeastSpecific) {
  SolveCostModel model;
  model.record(/*m=*/256, /*n=*/512, /*sample_us=*/1000);

  // Exact (m, n) measurement wins once it exists.
  EXPECT_DOUBLE_EQ(model.estimate_ms(256, 512), 1.0);

  // A shape never seen rides the shape-blind global EWMA.
  const double unseen = model.estimate_ms(128, 256);
  EXPECT_GT(unseen, 0.0);
}

TEST(SolveCostModel, OverridePinsEveryEstimate) {
  SolveCostModel model;
  model.record(256, 512, 1000);
  model.override_ms = 7.5;
  EXPECT_EQ(model.estimate_ms(256, 512), 7.5);
  EXPECT_EQ(model.estimate_ms(9999, 9999), 7.5);
}

TEST(SolveCostModel, EwmaFoldsTowardNewSamples) {
  SolveCostModel model;
  model.record(256, 512, 800);
  EXPECT_EQ(model.measured_us(256, 512), 800u);  // First sample seeds.
  // alpha = 1/8: (800 * 7 + 1600) / 8 = 900.
  model.record(256, 512, 1600);
  EXPECT_EQ(model.measured_us(256, 512), 900u);
}

TEST(SolveCostModel, EstimatesTrackShapeMonotonically) {
  // 128- and 512-sample CR50 windows (m = n / 2), recorded interleaved the
  // way a mixed queue records them, at per-solve costs in roughly the
  // ratio of their FISTA work.  Pinned samples, so no host load can flip
  // the order.
  SolveCostModel model;
  const std::uint64_t small_us[] = {90, 110, 100, 95};
  const std::uint64_t large_us[] = {1500, 1700, 1600, 1650};
  for (int i = 0; i < 4; ++i) {
    model.record(/*m=*/64, /*n=*/128, small_us[i]);
    model.record(/*m=*/256, /*n=*/512, large_us[i]);
  }
  const double small = model.estimate_ms(64, 128);
  const double large = model.estimate_ms(256, 512);
  EXPECT_GT(large, small) << "per-shape table collapsed into a shape-blind average";
  // Each estimate is its own shape's EWMA, never blended with the other's.
  EXPECT_DOUBLE_EQ(small, static_cast<double>(model.measured_us(64, 128)) / 1000.0);
  EXPECT_DOUBLE_EQ(large, static_cast<double>(model.measured_us(256, 512)) / 1000.0);
  EXPECT_LE(small, 0.110);
  EXPECT_GE(large, 1.500);
}

TEST(SolveCostModel, UnpackableShapesRideTheGlobalFallback) {
  SolveCostModel model;
  // m >= 2^24 cannot pack into the key: no per-shape slot, but the global
  // EWMA still carries the sample.
  model.record(1u << 24, 512, 500);
  EXPECT_EQ(model.measured_us(1u << 24, 512), 0u);
  EXPECT_EQ(model.global_us(), 500u);
  EXPECT_DOUBLE_EQ(model.estimate_ms(1u << 24, 512), 0.5);
}

}  // namespace
}  // namespace wbsn::host
