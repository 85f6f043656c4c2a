// Per-(m, n) solve-time estimation: the deadline-shed predictor keys its
// EWMA by window shape, because a 512-sample solve costs a different
// amount than a 128-sample one and a shape-blind average lies about both.
// Pins the estimate surface: 0 before any solve, per-shape after solving
// that shape and untouched by solving another, global fallback for shapes
// never seen, and the configured override beating the measurements.  Also
// pins the priced backlog (backlog_wait_ms) the CR hints read, and the
// pending-patient list they are addressed to.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "host/reconstruction_engine.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace wbsn::host {
namespace {

std::vector<CompressedWindow> shaped_windows(std::uint32_t window_samples,
                                             std::size_t count) {
  sig::SynthConfig synth;
  synth.num_leads = 1;
  synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, 16}};
  sig::Rng rng(0x5EED5ULL);
  const auto record = synthesize_ecg(synth, rng);
  RecordCompressionConfig compression;
  compression.window_samples = window_samples;
  compression.cr_percent = 50.0;
  auto windows = compress_record(record, 1, compression);
  EXPECT_GE(windows.size(), count);
  windows.resize(count);
  return windows;
}

struct Shape {
  std::uint32_t m = 0;
  std::uint32_t n = 0;
};

Shape shape_of(const CompressedWindow& window) {
  return {static_cast<std::uint32_t>(window.measurements.size()),
          window.window_samples};
}

TEST(SolveEstimate, PerShapeEwmaTracksEachWindowSizeSeparately) {
  // Measured solve times of two shapes can trade places on a loaded host,
  // so this checks separation, which load cannot break: solving one shape
  // leaves the other shape's estimate bit-identical.  The "512 samples
  // cost more than 128" ordering is pinned with fixed samples in
  // SolveCostModel.EstimatesTrackShapeMonotonically.
  EngineConfig cfg;
  cfg.threads = 0;
  cfg.fista.max_iterations = 40;
  cfg.fista.debias_iterations = 10;

  const auto small = shaped_windows(/*window_samples=*/128, /*count=*/4);
  const auto large = shaped_windows(/*window_samples=*/512, /*count=*/4);
  const Shape s = shape_of(small.front());
  const Shape l = shape_of(large.front());
  ASSERT_NE(s.n, l.n);

  for (const bool small_first : {true, false}) {
    SCOPED_TRACE(small_first ? "small windows first" : "large windows first");
    ReconstructionEngine engine(cfg);
    // Nothing measured yet: the predictor refuses to guess.
    EXPECT_EQ(engine.solve_estimate_ms(s.m, s.n), 0.0);
    EXPECT_EQ(engine.solve_estimate_ms(l.m, l.n), 0.0);

    const Shape first = small_first ? s : l;
    const Shape second = small_first ? l : s;
    auto first_windows = small_first ? small : large;
    auto second_windows = small_first ? large : small;

    for (auto& window : first_windows) engine.submit(std::move(window));
    ASSERT_EQ(engine.drain().size(), 4u);
    const double first_est = engine.solve_estimate_ms(first.m, first.n);
    EXPECT_GT(first_est, 0.0);

    for (auto& window : second_windows) engine.submit(std::move(window));
    ASSERT_EQ(engine.drain().size(), 4u);
    const double second_est = engine.solve_estimate_ms(second.m, second.n);
    EXPECT_GT(second_est, 0.0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(engine.solve_estimate_ms(first.m, first.n)),
              std::bit_cast<std::uint64_t>(first_est))
        << "solving one shape moved another shape's estimate";

    // A shape never solved falls back to the global (shape-blind) EWMA:
    // nonzero, and bounded by the measured extremes.
    const double small_est = engine.solve_estimate_ms(s.m, s.n);
    const double large_est = engine.solve_estimate_ms(l.m, l.n);
    const double unseen = engine.solve_estimate_ms(s.m + 1, s.n + 64);
    EXPECT_GT(unseen, 0.0);
    EXPECT_GE(unseen, small_est * 0.01);
    EXPECT_LE(unseen, large_est * 100.0);
  }
}

TEST(SolveEstimate, ConfiguredOverrideBeatsMeasurement) {
  EngineConfig cfg;
  cfg.threads = 0;
  cfg.fista.max_iterations = 25;
  cfg.fista.debias_iterations = 5;
  cfg.shed_solve_estimate_ms = 7.5;
  ReconstructionEngine engine(cfg);

  auto windows = shaped_windows(/*window_samples=*/128, /*count=*/2);
  const Shape s = shape_of(windows.front());
  EXPECT_EQ(engine.solve_estimate_ms(s.m, s.n), 7.5);

  for (auto& window : windows) engine.submit(std::move(window));
  ASSERT_EQ(engine.drain().size(), 2u);

  // Measurements exist now, but the operator's override still wins — for
  // every shape, including ones never solved.
  EXPECT_EQ(engine.solve_estimate_ms(s.m, s.n), 7.5);
  EXPECT_EQ(engine.solve_estimate_ms(9999, 9999), 7.5);
}

TEST(SolveEstimate, BacklogPricesEveryAdmissionAndReleasesItExactly) {
  // The priced backlog behind the CR hints: each admission charges its
  // estimate, completion and shed release exactly that charge.  Serial
  // mode, so nothing drains until drain(), and the pinned estimate makes
  // every charge exact.
  constexpr double kEstimateMs = 7.5;
  EngineConfig cfg;
  cfg.threads = 0;
  cfg.fista.max_iterations = 25;
  cfg.fista.debias_iterations = 5;
  cfg.queue_capacity = 3;
  cfg.deadline_shedding = true;
  cfg.slo.deadline_ms = 5.0;  // Below one solve: every queued window is a predicted miss.
  cfg.shed_solve_estimate_ms = kEstimateMs;
  ReconstructionEngine engine(cfg);
  const double workers = 1.0;  // Serial mode prices against one solver.

  auto windows = shaped_windows(/*window_samples=*/128, /*count=*/7);
  EXPECT_EQ(engine.backlog_wait_ms(), 0.0);

  for (std::size_t k = 1; k <= 3; ++k) {
    ASSERT_TRUE(engine.try_submit(std::move(windows[k - 1])).has_value());
    EXPECT_DOUBLE_EQ(engine.backlog_wait_ms(), static_cast<double>(k) * kEstimateMs / workers);
  }
  ASSERT_EQ(engine.drain().size(), 3u);
  EXPECT_EQ(engine.backlog_wait_ms(), 0.0);

  // At capacity a fourth arrival sheds a queued window: the victim's
  // charge leaves, the arrival's comes in, and the total stays three.
  for (std::size_t i = 3; i < 6; ++i) {
    ASSERT_TRUE(engine.try_submit(std::move(windows[i])).has_value());
  }
  ASSERT_TRUE(engine.try_submit(std::move(windows[6])).has_value());
  EXPECT_EQ(engine.slo().snapshot().shed_routine, 1u);
  EXPECT_DOUBLE_EQ(engine.backlog_wait_ms(), 3.0 * kEstimateMs / workers);
  ASSERT_EQ(engine.drain().size(), 3u);
  EXPECT_EQ(engine.backlog_wait_ms(), 0.0);
}

}  // namespace
}  // namespace wbsn::host
