// Fidelity-degrade ladder: under backlog pressure the engine demotes
// queued routine windows down the Figure-5 ladder (higher effective CR,
// capped iterations) instead of shedding them whole.  Pins the contract
// edges: an empty ladder is bit-identical to an engine without the tier
// machinery, urgent windows never demote no matter the flood, an
// iteration-only rung keeps every row, a preset tier is honored
// deterministically (the audit path), and a row-truncated solve still
// reconstructs the signal.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "cs/sensing_matrix.hpp"
#include "host/reconstruction_engine.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace wbsn::host {
namespace {

EngineConfig fast_engine(int threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.fista.max_iterations = 40;
  cfg.fista.debias_iterations = 10;
  return cfg;
}

/// Distinct-payload windows (real consecutive ECG windows, reference
/// attached) so bit-identity comparisons can't pass vacuously on
/// identical inputs.
std::vector<CompressedWindow> ecg_windows(std::size_t count) {
  sig::SynthConfig synth;
  synth.num_leads = 1;
  synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, 40}};
  sig::Rng rng(0xDE62ADEULL);
  const auto record = synthesize_ecg(synth, rng);
  RecordCompressionConfig compression;
  // 512-sample windows at CR 50 (m = 256): the under-determined regime
  // where a row-truncated operator measurably changes the solve.  At 128
  // samples recovery is exact and every tier collapses to the same bits.
  compression.window_samples = 512;
  auto windows = compress_record(record, 1, compression);
  EXPECT_GE(windows.size(), count);
  windows.resize(count);
  return windows;
}

bool same_signal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A config under enough synthetic pressure to trip the proactive
/// demotion trigger on every submit past the first: pinned 10 ms solves
/// against a 10 ms deadline mean the priced backlog overshoots as soon
/// as two windows queue.
EngineConfig pressured_engine(std::vector<DegradeTierSpec> ladder) {
  auto cfg = fast_engine(0);  // Serial: nothing drains until poll().
  cfg.queue_capacity = 64;
  cfg.slo.deadline_ms = 10.0;
  cfg.shed_solve_estimate_ms = 10.0;  // Pin the predictor: no EWMA warmup.
  cfg.degrade_tiers = std::move(ladder);
  return cfg;
}

/// One rung: CR 70, iterations capped at 20.
const std::vector<DegradeTierSpec> kCrRung = {{/*cr_percent=*/70.0, /*iteration_cap=*/20}};

TEST(DegradePolicy, EmptyLadderIsBitIdenticalToThePlainEngine) {
  // Same pressured shape, no ladder vs a plain engine that has never
  // heard of tiers: every reconstruction must match bit for bit.
  ReconstructionEngine off(pressured_engine({}));
  ReconstructionEngine plain(fast_engine(0));

  auto first = ecg_windows(6);
  auto second = first;
  for (auto& window : first) ASSERT_TRUE(off.try_submit(std::move(window)));
  for (auto& window : second) plain.submit(std::move(window));

  const auto off_results = off.drain();
  const auto plain_results = plain.drain();
  ASSERT_EQ(off_results.size(), 6u);
  ASSERT_EQ(plain_results.size(), 6u);
  for (std::size_t i = 0; i < off_results.size(); ++i) {
    EXPECT_EQ(off_results[i].solve_tier.tier, 0u);
    EXPECT_FALSE(off_results[i].degraded);
    EXPECT_TRUE(same_signal(off_results[i].signal, plain_results[i].signal))
        << "window " << i << ": an empty ladder changed the reconstruction";
  }
  EXPECT_EQ(off.slo().snapshot().degraded_windows, 0u);
}

TEST(DegradePolicy, ProactiveTriggerDemotesQueuedRoutineWindows) {
  ReconstructionEngine engine(pressured_engine(kCrRung));
  auto windows = ecg_windows(8);
  const std::uint32_t n = windows.front().window_samples;
  const auto expected_m =
      static_cast<std::uint32_t>(cs::rows_for_cr(70.0, n));
  for (auto& window : windows) {
    ASSERT_TRUE(engine.try_submit(std::move(window)).has_value());
  }

  const auto results = engine.drain();
  ASSERT_EQ(results.size(), 8u);
  std::size_t degraded = 0;
  for (const auto& result : results) {
    if (!result.degraded) continue;
    ++degraded;
    EXPECT_EQ(result.solve_tier.tier, 1u);
    EXPECT_EQ(result.solve_tier.effective_m, expected_m);
    EXPECT_EQ(result.solve_tier.iteration_cap, 20u);
    EXPECT_LE(result.iterations, 20);
    // The row-truncated solve still reconstructs: positive SNR against
    // the attached reference, not garbage from a mangled operator.
    EXPECT_TRUE(std::isfinite(result.snr_db));
    EXPECT_GT(result.snr_db, 0.0);
  }
  EXPECT_GT(degraded, 0u) << "priced backlog never tripped the trigger";
  const auto snap = engine.slo().snapshot();
  EXPECT_EQ(snap.degraded_windows, degraded);
  EXPECT_EQ(snap.shed_routine + snap.shed_urgent, 0u)
      << "demotion relieved pressure; nothing should have shed";
  EXPECT_EQ(engine.lane_slo(cs::WindowPriority::kRoutine).snapshot().degraded_windows,
            degraded);
}

TEST(DegradePolicy, IterationOnlyRungKeepsEveryRow) {
  // A rung with cr_percent 0 caps iterations and leaves the operator
  // whole: degraded results solve on all m rows.
  ReconstructionEngine engine(pressured_engine({{/*cr_percent=*/0.0, /*iteration_cap=*/20}}));
  auto windows = ecg_windows(8);
  for (auto& window : windows) {
    ASSERT_TRUE(engine.try_submit(std::move(window)).has_value());
  }

  const auto results = engine.drain();
  ASSERT_EQ(results.size(), 8u);
  std::size_t degraded = 0;
  for (const auto& result : results) {
    if (!result.degraded) continue;
    ++degraded;
    EXPECT_EQ(result.solve_tier.tier, 1u);
    EXPECT_EQ(result.solve_tier.effective_m, 0u);
    EXPECT_EQ(result.solve_tier.iteration_cap, 20u);
    EXPECT_LE(result.iterations, 20);
  }
  EXPECT_GT(degraded, 0u) << "priced backlog never tripped the trigger";
}

TEST(DegradePolicy, UrgentWindowsNeverDemoteUnderFlood) {
  ReconstructionEngine engine(pressured_engine(kCrRung));
  auto windows = ecg_windows(12);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (i % 3 == 0) windows[i].priority = cs::WindowPriority::kUrgent;  // 4 of 12.
    ASSERT_TRUE(engine.try_submit(std::move(windows[i])).has_value());
  }

  const auto results = engine.drain();
  ASSERT_EQ(results.size(), 12u);
  std::size_t routine_degraded = 0;
  for (const auto& result : results) {
    if (result.priority == cs::WindowPriority::kUrgent) {
      EXPECT_FALSE(result.degraded) << "urgent window " << result.window_index
                                    << " lost fidelity";
      EXPECT_EQ(result.solve_tier.tier, 0u);
    } else if (result.degraded) {
      ++routine_degraded;
    }
  }
  EXPECT_GT(routine_degraded, 0u) << "flood never demoted anything — vacuous pass";
  EXPECT_EQ(engine.lane_slo(cs::WindowPriority::kUrgent).snapshot().degraded_windows, 0u);
  EXPECT_EQ(engine.lane_slo(cs::WindowPriority::kRoutine).snapshot().degraded_windows,
            routine_degraded);
}

TEST(DegradePolicy, DemotionRepricesTheBacklogUnderMeasuredCosts) {
  // No pinned estimate this time: the cost model prices from its measured
  // EWMA, so a demotion to the capped tier must *shrink* the priced
  // backlog (the whole point of "solve cheaper").  Also pins the
  // pending-patient surface the CR-hint ack is built from.
  auto cfg = fast_engine(0);
  cfg.queue_capacity = 64;
  cfg.slo.deadline_ms = 0.05;  // Any measured backlog overshoots.
  cfg.degrade_tiers = kCrRung;
  ReconstructionEngine engine(cfg);

  auto windows = ecg_windows(5);
  const std::uint32_t m = static_cast<std::uint32_t>(windows[0].measurements.size());
  const std::uint32_t n = windows[0].window_samples;
  // Warm the tier-0 EWMA with one completed solve so admissions charge a
  // measured cost.
  engine.submit(std::move(windows[0]));
  ASSERT_TRUE(engine.poll().has_value());
  const double full_fidelity_ms = engine.cost_model().estimate_ms(m, n, 0, 1.0);
  ASSERT_GT(full_fidelity_ms, 0.0) << "warm solve never reached the cost model";

  for (std::size_t i = 1; i < windows.size(); ++i) {
    ASSERT_TRUE(engine.try_submit(std::move(windows[i])).has_value());
  }
  // Four queued windows, every one demoted to the half-budget tier and
  // repriced: the backlog must come in strictly under four full-fidelity
  // solves.
  EXPECT_GT(engine.backlog_wait_ms(), 0.0);
  EXPECT_LT(engine.backlog_wait_ms(), 4.0 * full_fidelity_ms);

  // The CR-hint surface: patient 1 has queued work.
  EXPECT_EQ(engine.patient_pending(1), 4u);
  const auto pending = engine.pending_patients(8);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending.front(), 1u);

  const auto results = engine.drain();
  ASSERT_EQ(results.size(), 4u);
  for (const auto& result : results) {
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(result.solve_tier.tier, 1u);
  }
  EXPECT_TRUE(engine.pending_patients(8).empty());
  EXPECT_EQ(engine.patient_pending(1), 0u);
}

TEST(DegradePolicy, PresetTierIsHonoredDeterministically) {
  // The audit path: a submitter presets a tier and the engine solves at
  // exactly that fidelity, reproducibly, with no ladder configured.
  auto windows = ecg_windows(1);
  const std::uint32_t n = windows.front().window_samples;
  cs::SolveTier tier;
  tier.tier = 1;
  tier.effective_m = static_cast<std::uint32_t>(cs::rows_for_cr(70.0, n));
  tier.iteration_cap = 20;

  auto solve_at = [&](cs::SolveTier preset) {
    ReconstructionEngine engine(fast_engine(0));
    CompressedWindow copy = windows.front();
    copy.solve_tier = preset;
    engine.submit(std::move(copy));
    auto results = engine.drain();
    EXPECT_EQ(results.size(), 1u);
    return results.front();
  };

  const auto full = solve_at({});
  const auto once = solve_at(tier);
  const auto twice = solve_at(tier);

  EXPECT_FALSE(full.degraded);
  EXPECT_TRUE(once.degraded);
  EXPECT_EQ(once.solve_tier.tier, 1u);
  EXPECT_EQ(once.solve_tier.effective_m, tier.effective_m);
  EXPECT_LE(once.iterations, 20);
  EXPECT_TRUE(same_signal(once.signal, twice.signal))
      << "per-(payload, tier) determinism contract broken";
  EXPECT_FALSE(same_signal(once.signal, full.signal))
      << "preset tier was ignored — solved at full fidelity";
  EXPECT_TRUE(std::isfinite(once.snr_db));
  EXPECT_GT(once.snr_db, 0.0);
}

}  // namespace
}  // namespace wbsn::host
