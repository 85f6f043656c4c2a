#include "host/slo_tracker.hpp"

#include "host/reconstruction_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

namespace wbsn::host {
namespace {

// The histogram uses 8 sub-buckets per octave, so any reported quantile is
// within 12.5% (one sub-bucket) of the true value, plus half a bucket for
// the midpoint convention.
constexpr double kRelTol = 0.20;

TEST(SloTracker, EmptySnapshotIsAllZero) {
  SloTracker tracker;
  const auto snap = tracker.snapshot();
  EXPECT_EQ(snap.submitted, 0u);
  EXPECT_EQ(snap.completed, 0u);
  EXPECT_EQ(snap.in_flight, 0u);
  EXPECT_EQ(snap.deadline_violations, 0u);
  EXPECT_EQ(snap.p50_ms, 0.0);
  EXPECT_EQ(snap.p99_ms, 0.0);
  EXPECT_EQ(snap.max_ms, 0.0);
  EXPECT_EQ(snap.mean_ms, 0.0);
}

TEST(SloTracker, QuantilesOnUniformLatencies) {
  SloTracker tracker;
  // 1..1000 ms, each exactly once: p50 = 500, p95 = 950, p99 = 990.
  for (int ms = 1; ms <= 1000; ++ms) {
    tracker.on_submit();
    tracker.on_complete(static_cast<double>(ms));
    tracker.on_retrieve();
  }
  const auto snap = tracker.snapshot();
  EXPECT_EQ(snap.completed, 1000u);
  EXPECT_EQ(snap.in_flight, 0u);
  EXPECT_NEAR(snap.p50_ms, 500.0, 500.0 * kRelTol);
  EXPECT_NEAR(snap.p95_ms, 950.0, 950.0 * kRelTol);
  EXPECT_NEAR(snap.p99_ms, 990.0, 990.0 * kRelTol);
  EXPECT_DOUBLE_EQ(snap.max_ms, 1000.0);          // Max is exact.
  EXPECT_NEAR(snap.mean_ms, 500.5, 0.01);          // Mean is exact (us sum).
  EXPECT_LE(snap.p50_ms, snap.p95_ms);
  EXPECT_LE(snap.p95_ms, snap.p99_ms);
  EXPECT_LE(snap.p99_ms, snap.max_ms * (1.0 + kRelTol));
}

TEST(SloTracker, SubMillisecondLatenciesResolve) {
  SloTracker tracker;
  for (int i = 0; i < 100; ++i) {
    tracker.on_submit();
    tracker.on_complete(0.050);  // 50 us.
    tracker.on_retrieve();
  }
  const auto snap = tracker.snapshot();
  EXPECT_NEAR(snap.p50_ms, 0.050, 0.050 * kRelTol);
  EXPECT_NEAR(snap.mean_ms, 0.050, 0.001);
}

TEST(SloTracker, DeadlineViolationsCounted) {
  SloTracker tracker(SloConfig{.deadline_ms = 10.0});
  const double latencies[] = {1.0, 9.9, 10.0, 10.1, 50.0, 3.0};
  for (const double ms : latencies) {
    tracker.on_submit();
    tracker.on_complete(ms);
    tracker.on_retrieve();
  }
  const auto snap = tracker.snapshot();
  EXPECT_EQ(snap.deadline_violations, 2u);  // 10.1 and 50; 10.0 is on time.
  EXPECT_DOUBLE_EQ(snap.deadline_ms, 10.0);
}

TEST(SloTracker, ZeroDeadlineDisablesViolations) {
  SloTracker tracker;  // deadline_ms = 0.
  tracker.on_submit();
  tracker.on_complete(1e6);
  tracker.on_retrieve();
  EXPECT_EQ(tracker.snapshot().deadline_violations, 0u);
}

TEST(SloTracker, InFlightDepthAndHighWaterMark) {
  SloTracker tracker;
  for (int i = 0; i < 5; ++i) tracker.on_submit();
  auto snap = tracker.snapshot();
  EXPECT_EQ(snap.in_flight, 5u);
  EXPECT_EQ(snap.max_in_flight, 5u);

  for (int i = 0; i < 3; ++i) {
    tracker.on_complete(1.0);
    tracker.on_retrieve();
  }
  snap = tracker.snapshot();
  EXPECT_EQ(snap.in_flight, 2u);
  EXPECT_EQ(snap.max_in_flight, 5u) << "high-water mark must not shrink";

  tracker.on_submit();
  snap = tracker.snapshot();
  EXPECT_EQ(snap.in_flight, 3u);
  EXPECT_EQ(snap.max_in_flight, 5u);
}

TEST(SloTracker, ResetClearsEverything) {
  SloTracker tracker(SloConfig{.deadline_ms = 1.0});
  tracker.on_submit();
  tracker.on_complete(100.0);
  tracker.on_retrieve();
  ASSERT_EQ(tracker.snapshot().deadline_violations, 1u);

  tracker.reset();
  const auto snap = tracker.snapshot();
  EXPECT_EQ(snap.submitted, 0u);
  EXPECT_EQ(snap.completed, 0u);
  EXPECT_EQ(snap.deadline_violations, 0u);
  EXPECT_EQ(snap.max_in_flight, 0u);
  EXPECT_EQ(snap.p99_ms, 0.0);
  EXPECT_EQ(snap.max_ms, 0.0);
}

TEST(SloTracker, ConcurrentRecordingLosesNothing) {
  SloTracker tracker(SloConfig{.deadline_ms = 0.5});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker] {
      for (int i = 0; i < kPerThread; ++i) {
        tracker.on_submit();
        tracker.on_complete(i % 2 == 0 ? 0.1 : 1.0);  // Half violate 0.5 ms.
        tracker.on_retrieve();
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto snap = tracker.snapshot();
  EXPECT_EQ(snap.submitted, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.completed, snap.submitted);
  EXPECT_EQ(snap.in_flight, 0u);
  EXPECT_EQ(snap.deadline_violations, snap.completed / 2);
  EXPECT_GT(snap.throughput_per_s, 0.0);
}

TEST(SloTracker, ShedAndRejectCountersSplitByLane) {
  SloTracker tracker;
  for (int i = 0; i < 5; ++i) tracker.on_submit();
  tracker.on_shed(/*urgent=*/false);
  tracker.on_shed(/*urgent=*/false);
  tracker.on_shed(/*urgent=*/true);
  tracker.on_reject();

  auto snap = tracker.snapshot();
  EXPECT_EQ(snap.shed_routine, 2u);
  EXPECT_EQ(snap.shed_urgent, 1u);
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.submitted, 5u) << "rejected arrivals were never submitted";
  EXPECT_EQ(snap.in_flight, 2u) << "shed windows leave the in-flight population";

  for (int i = 0; i < 2; ++i) {
    tracker.on_complete(1.0);
    tracker.on_retrieve();
  }
  snap = tracker.snapshot();
  EXPECT_EQ(snap.in_flight, 0u);
  EXPECT_EQ(snap.completed, 2u);

  tracker.reset();
  snap = tracker.snapshot();
  EXPECT_EQ(snap.shed_routine + snap.shed_urgent + snap.rejected, 0u);
}

TEST(SloTracker, StateSumFoldsHistogramsAndCounters) {
  SloTracker a(SloConfig{.deadline_ms = 10.0});
  SloTracker b(SloConfig{.deadline_ms = 10.0});
  // a: 100 windows at 2 ms; b: 100 windows at 200 ms (all violations).
  for (int i = 0; i < 100; ++i) {
    a.on_submit();
    a.on_complete(2.0);
    a.on_retrieve();
    b.on_submit();
    b.on_complete(200.0);
    b.on_retrieve();
  }
  b.on_shed(/*urgent=*/true);
  b.on_reject();

  SloTrackerState sum = a.state();
  sum += b.state();
  const auto snap = summarize(sum, 10.0);
  EXPECT_EQ(snap.submitted, 200u);
  EXPECT_EQ(snap.completed, 200u);
  EXPECT_EQ(snap.deadline_violations, 100u);
  EXPECT_EQ(snap.shed_urgent, 1u);
  EXPECT_EQ(snap.rejected, 1u);
  // Quantiles come from the summed histogram, not an average of per-shard
  // quantiles: the bimodal mix has p50 in the low mode, p95 in the high.
  EXPECT_NEAR(snap.p50_ms, 2.0, 2.0 * kRelTol);
  EXPECT_NEAR(snap.p95_ms, 200.0, 200.0 * kRelTol);
  EXPECT_DOUBLE_EQ(snap.max_ms, 200.0);
  EXPECT_NEAR(snap.mean_ms, 101.0, 0.1);
  // The sum keeps the longer clock, so throughput is well defined and
  // positive.
  EXPECT_GT(snap.elapsed_s, 0.0);
  EXPECT_GT(snap.throughput_per_s, 0.0);
}

TEST(SloTracker, StateSumWithEmptySourceIsANoOp) {
  SloTracker tracker(SloConfig{.deadline_ms = 5.0});
  for (int i = 0; i < 10; ++i) {
    tracker.on_submit();
    tracker.on_complete(2.0);
    tracker.on_retrieve();
  }
  const auto before = tracker.snapshot();

  SloTracker empty(SloConfig{.deadline_ms = 5.0});
  SloTrackerState sum = tracker.state();
  sum += empty.state();
  const auto after = summarize(sum, 5.0);
  EXPECT_EQ(after.submitted, before.submitted);
  EXPECT_EQ(after.completed, before.completed);
  EXPECT_EQ(after.shed_routine + after.shed_urgent, 0u);
  EXPECT_EQ(after.rejected, 0u);
  EXPECT_DOUBLE_EQ(after.p50_ms, before.p50_ms);
  EXPECT_DOUBLE_EQ(after.max_ms, before.max_ms);
  EXPECT_DOUBLE_EQ(after.mean_ms, before.mean_ms);
  EXPECT_EQ(empty.snapshot().submitted, 0u) << "reading a state must not touch the source";
}

// The cross-process handoff pair behind the wire MIGRATE_SLO/ADOPT_SLO
// verbs: extract_state() zeroes the source and packages everything into a
// plain struct, absorb_state() folds it into another tracker.  Counts and
// quantiles must be conserved end to end.
TEST(SloTracker, ExtractAbsorbConservesStateAcrossTheStructBoundary) {
  SloTracker source(SloConfig{.deadline_ms = 10.0});
  for (int i = 0; i < 50; ++i) {
    source.on_submit();
    source.on_complete(i % 2 == 0 ? 2.0 : 200.0);  // Half violate.
    source.on_retrieve();
  }
  source.on_shed(/*urgent=*/false);
  source.on_shed(/*urgent=*/true);
  source.on_reject();
  const auto before = source.snapshot();

  SloTrackerState state = source.extract_state();
  EXPECT_FALSE(state.empty());
  EXPECT_EQ(state.submitted, 50u);
  EXPECT_EQ(state.completed, 50u);
  EXPECT_GT(state.elapsed_us, 0u);
  // Extraction empties the source.
  const auto drained = source.snapshot();
  EXPECT_EQ(drained.submitted, 0u);
  EXPECT_EQ(drained.completed, 0u);
  EXPECT_EQ(drained.shed_routine + drained.shed_urgent + drained.rejected, 0u);
  EXPECT_EQ(drained.max_ms, 0.0);

  SloTracker dest(SloConfig{.deadline_ms = 10.0});
  dest.on_submit();
  dest.on_complete(500.0);  // Larger max: absorb must not lower it.
  dest.on_retrieve();
  dest.absorb_state(state);
  const auto after = dest.snapshot();
  EXPECT_EQ(after.submitted, before.submitted + 1);
  EXPECT_EQ(after.completed, before.completed + 1);
  EXPECT_EQ(after.deadline_violations, before.deadline_violations + 1);
  EXPECT_EQ(after.shed_routine, before.shed_routine);
  EXPECT_EQ(after.shed_urgent, before.shed_urgent);
  EXPECT_EQ(after.rejected, before.rejected);
  EXPECT_DOUBLE_EQ(after.max_ms, 500.0);
  EXPECT_NEAR(after.p95_ms, 200.0, 200.0 * kRelTol);

  // A smaller imported max loses to the resident one.
  SloTracker small;
  small.on_submit();
  small.on_complete(1.0);
  dest.absorb_state(small.extract_state());
  EXPECT_DOUBLE_EQ(dest.snapshot().max_ms, 500.0);

  // An extracted-empty tracker round-trips as a no-op.
  EXPECT_TRUE(SloTracker().extract_state().empty());
}

// Handoff raced against a recording thread: counts may land on either
// side of the move but must be conserved — the sum across both trackers
// equals everything ever recorded.  This is the TSan probe for extraction
// racing recording threads on the same tracker.
TEST(SloTracker, ExtractStateConcurrentWithRecordConservesTotals) {
  SloTracker source;
  SloTracker dest;
  constexpr int kRecords = 30000;

  std::thread recorder([&source] {
    for (int i = 0; i < kRecords; ++i) {
      source.on_submit();
      source.on_complete(1.0);
      source.on_retrieve();
    }
  });
  for (int i = 0; i < 200; ++i) {
    dest.absorb_state(source.extract_state());
    std::this_thread::yield();
  }
  recorder.join();
  dest.absorb_state(source.extract_state());  // Sweep the stragglers.

  const auto total = dest.snapshot();
  EXPECT_EQ(total.submitted, static_cast<std::uint64_t>(kRecords));
  EXPECT_EQ(total.completed, static_cast<std::uint64_t>(kRecords));
  EXPECT_EQ(total.in_flight, 0u);
  EXPECT_EQ(source.snapshot().submitted, 0u);
}

// Snapshots raced against recording threads must stay internally sane
// (never crash, never report impossible totals once quiesced).  This is
// also the TSan probe for the record/state-read concurrency the engine and
// the fabric's summed views rely on.
TEST(SloTracker, ConcurrentRecordVersusSnapshot) {
  SloTracker tracker(SloConfig{.deadline_ms = 0.5});
  constexpr int kThreads = 3;
  constexpr int kPerThread = 20000;

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = tracker.snapshot();
      // Monotone quantile ordering holds for any histogram state.
      EXPECT_LE(snap.p50_ms, snap.p95_ms);
      EXPECT_LE(snap.p95_ms, snap.p99_ms);
      EXPECT_LE(snap.completed, static_cast<std::uint64_t>(kThreads) * kPerThread);
    }
  });

  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&tracker] {
      for (int i = 0; i < kPerThread; ++i) {
        tracker.on_submit();
        tracker.on_complete(i % 2 == 0 ? 0.1 : 1.0);
        tracker.on_retrieve();
      }
    });
  }
  for (auto& t : recorders) t.join();
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  const auto snap = tracker.snapshot();
  EXPECT_EQ(snap.submitted, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.completed, snap.submitted);
  EXPECT_EQ(snap.in_flight, 0u);
}

// Handoff against the engine's patient-map capacity: an adopted tracker
// must respect max_tracked_patients exactly like a brand-new patient
// (dropped from the breakdown, engine-wide counters untouched), and
// adopting onto an existing entry must fold, not replace.
TEST(SloTracker, AdoptAtPatientMapCapacityDropsButNeverSplits) {
  EngineConfig cfg;
  cfg.max_tracked_patients = 2;
  ReconstructionEngine engine(cfg);

  const auto state_with = [](std::uint64_t completions) {
    SloTracker tracker;
    for (std::uint64_t i = 0; i < completions; ++i) {
      tracker.on_submit();
      tracker.on_complete(1.0);
      tracker.on_retrieve();
    }
    return tracker.extract_state();
  };

  EXPECT_TRUE(engine.adopt_patient_slo(1, state_with(3)));
  EXPECT_TRUE(engine.adopt_patient_slo(2, state_with(5)));
  EXPECT_FALSE(engine.adopt_patient_slo(3, state_with(7)))
      << "a handoff beyond the cap must be refused, not grow the map";

  // Adopting onto an already-tracked patient folds the moved history in.
  EXPECT_TRUE(engine.adopt_patient_slo(1, state_with(4)));

  const auto breakdown = engine.patient_slo_snapshots();
  ASSERT_EQ(breakdown.size(), 2u);
  EXPECT_EQ(breakdown[0].patient_id, 1u);
  EXPECT_EQ(breakdown[0].slo.completed, 7u) << "3 adopted + 4 folded in";
  EXPECT_EQ(breakdown[1].patient_id, 2u);
  EXPECT_EQ(breakdown[1].slo.completed, 5u);

  // Extraction frees a slot: the previously refused patient now fits.
  const auto extracted = engine.extract_patient_slo(2);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->completed, 5u);
  EXPECT_FALSE(engine.extract_patient_slo(2).has_value()) << "already extracted";
  EXPECT_TRUE(engine.adopt_patient_slo(3, state_with(7)));
  EXPECT_EQ(engine.patient_slo_snapshots().size(), 2u);
}

TEST(SloTracker, ThroughputUsesElapsedClock) {
  SloTracker tracker;
  tracker.on_submit();
  tracker.on_complete(1.0);
  tracker.on_retrieve();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto snap = tracker.snapshot();
  EXPECT_GT(snap.elapsed_s, 0.015);
  EXPECT_GT(snap.throughput_per_s, 0.0);
  EXPECT_LT(snap.throughput_per_s, 1.0 / 0.015);
}

}  // namespace
}  // namespace wbsn::host
