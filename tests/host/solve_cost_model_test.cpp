// SolveCostModel unit surface: the (m, n, tier) EWMA table the shed
// predictor and degrade policy price solves with.  Pins the fallback
// chain (override > exact tier > tier-0 scaled > global scaled), the
// tier_scale clamp, and the EWMA fold — the degrade decision is only as
// sound as the price it is handed.
#include <gtest/gtest.h>

#include "host/solve_cost_model.hpp"

namespace wbsn::host {
namespace {

TEST(SolveCostModel, TierScaleIsIterationRatioWithFloor) {
  // Uncapped or meaningless caps price at full cost.
  EXPECT_EQ(SolveCostModel::tier_scale(0, 200), 1.0);
  EXPECT_EQ(SolveCostModel::tier_scale(200, 200), 1.0);
  EXPECT_EQ(SolveCostModel::tier_scale(400, 200), 1.0);
  EXPECT_EQ(SolveCostModel::tier_scale(80, 0), 1.0);
  // A real cap prices linearly in the iteration budget...
  EXPECT_DOUBLE_EQ(SolveCostModel::tier_scale(80, 200), 0.4);
  EXPECT_DOUBLE_EQ(SolveCostModel::tier_scale(100, 200), 0.5);
  // ...down to the floor: warm-up and debias never shrink to zero.
  EXPECT_DOUBLE_EQ(SolveCostModel::tier_scale(1, 200), 0.05);
}

TEST(SolveCostModel, EmptyModelRefusesToGuess) {
  SolveCostModel model;
  EXPECT_EQ(model.estimate_ms(256, 512, 0), 0.0);
  EXPECT_EQ(model.estimate_ms(256, 512, 1, 0.4), 0.0);
  EXPECT_EQ(model.measured_us(256, 512, 0), 0u);
  EXPECT_EQ(model.global_us(), 0u);
}

TEST(SolveCostModel, FallbackChainMostToLeastSpecific) {
  SolveCostModel model;
  model.record(/*m=*/256, /*n=*/512, /*tier=*/0, /*sample_us=*/1000);

  // Exact (m, n, tier) measurement wins once it exists.
  EXPECT_DOUBLE_EQ(model.estimate_ms(256, 512, 0), 1.0);

  // Tier 1 has never run: priced off the tier-0 measurement at the same
  // shape, scaled by the iteration-budget ratio.
  EXPECT_DOUBLE_EQ(model.estimate_ms(256, 512, 1, 0.4), 0.4);

  // Once tier 1 is measured at this shape, the measurement replaces the
  // scaled guess — even when it disagrees with the ratio.
  model.record(256, 512, 1, 700);
  EXPECT_DOUBLE_EQ(model.estimate_ms(256, 512, 1, 0.4), 0.7);

  // A shape never seen rides the shape-blind global EWMA, still scaled
  // for tiers.  Global has folded three samples by now; just pin bounds.
  const double unseen_full = model.estimate_ms(128, 256, 0);
  const double unseen_tier = model.estimate_ms(128, 256, 1, 0.5);
  EXPECT_GT(unseen_full, 0.0);
  EXPECT_DOUBLE_EQ(unseen_tier, unseen_full * 0.5);
}

TEST(SolveCostModel, OverridePinsEveryEstimate) {
  SolveCostModel model;
  model.record(256, 512, 0, 1000);
  model.override_ms = 7.5;
  EXPECT_EQ(model.estimate_ms(256, 512, 0), 7.5);
  EXPECT_EQ(model.estimate_ms(256, 512, 1, 0.1), 7.5);
  EXPECT_EQ(model.estimate_ms(9999, 9999, 3, 0.1), 7.5);
}

TEST(SolveCostModel, EwmaFoldsTowardNewSamples) {
  SolveCostModel model;
  model.record(256, 512, 0, 800);
  EXPECT_EQ(model.measured_us(256, 512, 0), 800u);  // First sample seeds.
  // alpha = 1/8: (800 * 7 + 1600) / 8 = 900.
  model.record(256, 512, 0, 1600);
  EXPECT_EQ(model.measured_us(256, 512, 0), 900u);
  // Tiers are separate keys: tier 1 is untouched by tier-0 folds.
  EXPECT_EQ(model.measured_us(256, 512, 1), 0u);
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
    model.record(/*m=*/64, /*n=*/128, 0, small_us[i]);
    model.record(/*m=*/256, /*n=*/512, 0, large_us[i]);
  }
  const double small = model.estimate_ms(64, 128, 0);
  const double large = model.estimate_ms(256, 512, 0);
  EXPECT_GT(large, small) << "per-shape table collapsed into a shape-blind average";
  // Each estimate is its own shape's EWMA, never blended with the other's.
  EXPECT_DOUBLE_EQ(small, static_cast<double>(model.measured_us(64, 128, 0)) / 1000.0);
  EXPECT_DOUBLE_EQ(large, static_cast<double>(model.measured_us(256, 512, 0)) / 1000.0);
  EXPECT_LE(small, 0.110);
  EXPECT_GE(large, 1.500);
}

TEST(SolveCostModel, UnpackableShapesRideTheGlobalFallback) {
  SolveCostModel model;
  // m >= 2^24 cannot pack into the key: no per-shape slot, but the global
  // EWMA still carries the sample.
  model.record(1u << 24, 512, 0, 500);
  EXPECT_EQ(model.measured_us(1u << 24, 512, 0), 0u);
  EXPECT_EQ(model.global_us(), 500u);
  EXPECT_DOUBLE_EQ(model.estimate_ms(1u << 24, 512, 0), 0.5);
}

}  // namespace
}  // namespace wbsn::host
