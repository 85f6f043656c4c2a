// Priority lanes and deadline-aware shedding: urgent windows jump the
// backlog, the shed policy drops the queued window predicted to miss its
// deadline (never the newest arrival, never an urgent window for a
// routine one), and every shed/reject lands in the right lane's counters.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

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

/// A small pool of identical-payload windows distinguished only by
/// window_index (and the priority the test assigns).
std::vector<CompressedWindow> numbered_windows(std::size_t count) {
  sig::SynthConfig synth;
  synth.num_leads = 1;
  synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, 6}};
  sig::Rng rng(0xBEA7ULL);
  const auto record = synthesize_ecg(synth, rng);
  RecordCompressionConfig compression;
  compression.window_samples = 128;
  const auto base = compress_record(record, 1, compression);
  EXPECT_FALSE(base.empty());

  std::vector<CompressedWindow> out;
  for (std::size_t i = 0; i < count; ++i) {
    CompressedWindow copy = base.front();
    copy.window_index = static_cast<std::uint32_t>(i);
    out.push_back(std::move(copy));
  }
  return out;
}

TEST(PriorityLanes, UrgentWindowsSolveBeforeQueuedRoutineOnes) {
  // Serial mode so nothing drains the queue until poll(): submit routine,
  // routine, urgent — completion order must lead with the urgent window.
  ReconstructionEngine engine(fast_engine(0));
  auto windows = numbered_windows(3);
  windows[2].priority = cs::WindowPriority::kUrgent;
  for (auto& window : windows) {
    ASSERT_TRUE(engine.try_submit(std::move(window)).has_value());
  }
  EXPECT_EQ(engine.backlog(cs::WindowPriority::kUrgent), 1u);
  EXPECT_EQ(engine.backlog(cs::WindowPriority::kRoutine), 2u);

  const auto first = engine.poll();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->window_index, 2u) << "urgent window must jump the backlog";
  EXPECT_EQ(first->priority, cs::WindowPriority::kUrgent);

  const auto second = engine.poll();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->window_index, 0u) << "routine lane stays FIFO";
  EXPECT_EQ(engine.drain().size(), 1u);
}

TEST(PriorityLanes, LaneTrackersSplitTheTraffic) {
  ReconstructionEngine engine(fast_engine(2));
  auto windows = numbered_windows(6);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (i % 3 == 0) windows[i].priority = cs::WindowPriority::kUrgent;  // 2 of 6.
    engine.submit(std::move(windows[i]));
  }
  const auto results = engine.drain();
  ASSERT_EQ(results.size(), 6u);

  const auto urgent = engine.lane_slo(cs::WindowPriority::kUrgent).snapshot();
  const auto routine = engine.lane_slo(cs::WindowPriority::kRoutine).snapshot();
  EXPECT_EQ(urgent.submitted, 2u);
  EXPECT_EQ(urgent.completed, 2u);
  EXPECT_EQ(urgent.in_flight, 0u);
  EXPECT_EQ(routine.submitted, 4u);
  EXPECT_EQ(routine.completed, 4u);
  EXPECT_EQ(routine.in_flight, 0u);
  EXPECT_EQ(engine.slo().snapshot().completed, 6u) << "engine-wide tracker sees both lanes";
}

// The acceptance scenario: under overload the engine sheds the queued
// window already predicted to miss its deadline — not the newest arrival,
// which binary admission would have bounced.
TEST(DeadlineShedding, DropsThePredictedMissNotTheNewestArrival) {
  auto cfg = fast_engine(0);
  cfg.queue_capacity = 3;
  cfg.deadline_shedding = true;
  cfg.slo.deadline_ms = 100.0;
  cfg.shed_solve_estimate_ms = 10.0;  // Pin the predictor: no EWMA warmup.
  ReconstructionEngine engine(cfg);

  auto windows = numbered_windows(4);
  // Window 0 enters first and ages past its whole deadline budget: with a
  // 10 ms solve estimate its predicted completion overshoots no matter
  // what, while windows 1 and 2 (fresh, shallow queue) are still on time.
  ASSERT_TRUE(engine.try_submit(std::move(windows[0])).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(engine.try_submit(std::move(windows[1])).has_value());
  ASSERT_TRUE(engine.try_submit(std::move(windows[2])).has_value());
  EXPECT_EQ(engine.in_flight(), 3u);

  // At capacity: the newest arrival (window 3) must be admitted by
  // shedding window 0, the predicted miss.
  const auto ticket = engine.try_submit(std::move(windows[3]));
  ASSERT_TRUE(ticket.has_value()) << "deadline-aware admission must not bounce the arrival";
  EXPECT_EQ(engine.in_flight(), 3u) << "victim's slot was transferred";

  const auto results = engine.drain();
  ASSERT_EQ(results.size(), 3u);
  for (const auto& result : results) {
    EXPECT_NE(result.window_index, 0u) << "the predicted-miss window must be the one shed";
  }

  const auto snap = engine.slo().snapshot();
  EXPECT_EQ(snap.submitted, 4u);
  EXPECT_EQ(snap.completed, 3u);
  EXPECT_EQ(snap.shed_routine, 1u);
  EXPECT_EQ(snap.shed_urgent, 0u);
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.in_flight, 0u) << "shed windows leave the in-flight population";
}

TEST(DeadlineShedding, FallsBackToRejectionWithoutASolveTimeSignal) {
  auto cfg = fast_engine(0);
  cfg.queue_capacity = 2;
  cfg.deadline_shedding = true;
  cfg.slo.deadline_ms = 1.0;  // Everything is doomed...
  // ...but shed_solve_estimate_ms is 0 and nothing has completed, so the
  // predictor has no signal and admission stays binary.
  ReconstructionEngine engine(cfg);

  auto windows = numbered_windows(3);
  ASSERT_TRUE(engine.try_submit(std::move(windows[0])).has_value());
  ASSERT_TRUE(engine.try_submit(std::move(windows[1])).has_value());
  EXPECT_FALSE(engine.try_submit(std::move(windows[2])).has_value());

  const auto snap = engine.slo().snapshot();
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.shed_routine + snap.shed_urgent, 0u);
  EXPECT_EQ(engine.drain().size(), 2u);
}

TEST(DeadlineShedding, RoutineArrivalNeverDisplacesUrgentWindows) {
  auto cfg = fast_engine(0);
  cfg.queue_capacity = 2;
  cfg.deadline_shedding = true;
  cfg.slo.deadline_ms = 50.0;
  cfg.shed_solve_estimate_ms = 10.0;
  ReconstructionEngine engine(cfg);

  auto windows = numbered_windows(4);
  windows[0].priority = cs::WindowPriority::kUrgent;
  windows[1].priority = cs::WindowPriority::kUrgent;
  windows[3].priority = cs::WindowPriority::kUrgent;
  ASSERT_TRUE(engine.try_submit(std::move(windows[0])).has_value());
  ASSERT_TRUE(engine.try_submit(std::move(windows[1])).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));  // Both now doomed.

  // Routine arrival: only the routine lane is scanned, it is empty, so
  // binary backpressure applies even though urgent victims exist.
  EXPECT_FALSE(engine.try_submit(std::move(windows[2])).has_value());
  auto snap = engine.slo().snapshot();
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.shed_urgent, 0u);

  // Urgent arrival: may displace a doomed urgent window.
  ASSERT_TRUE(engine.try_submit(std::move(windows[3])).has_value());
  snap = engine.slo().snapshot();
  EXPECT_EQ(snap.shed_urgent, 1u);
  EXPECT_EQ(snap.shed_routine, 0u);
  EXPECT_EQ(engine.lane_slo(cs::WindowPriority::kUrgent).snapshot().shed_urgent, 1u);
  EXPECT_EQ(engine.drain().size(), 2u);
}

TEST(DeadlineShedding, PrefersRoutineVictimOverOlderUrgentOne) {
  auto cfg = fast_engine(0);
  cfg.queue_capacity = 2;
  cfg.deadline_shedding = true;
  cfg.slo.deadline_ms = 50.0;
  cfg.shed_solve_estimate_ms = 10.0;
  ReconstructionEngine engine(cfg);

  auto windows = numbered_windows(3);
  windows[0].priority = cs::WindowPriority::kUrgent;  // Older than the routine one.
  windows[2].priority = cs::WindowPriority::kUrgent;
  ASSERT_TRUE(engine.try_submit(std::move(windows[0])).has_value());
  ASSERT_TRUE(engine.try_submit(std::move(windows[1])).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));  // Both doomed.

  ASSERT_TRUE(engine.try_submit(std::move(windows[2])).has_value());
  const auto snap = engine.slo().snapshot();
  EXPECT_EQ(snap.shed_routine, 1u) << "routine lane is shed first even when urgent is older";
  EXPECT_EQ(snap.shed_urgent, 0u);

  const auto results = engine.drain();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    EXPECT_EQ(result.priority, cs::WindowPriority::kUrgent)
        << "the surviving windows are the urgent ones";
  }
}

TEST(DeadlineShedding, BatchWrapperAndBlockingSubmitNeverShed) {
  // reconstruct()'s contract is every window back in input order, and a
  // blocking submit() waits rather than dropping queued work — so even a
  // shed-everything configuration must not shed (or count rejections)
  // through those paths.
  auto cfg = fast_engine(2);
  cfg.queue_capacity = 2;
  cfg.deadline_shedding = true;
  cfg.slo.deadline_ms = 0.0001;       // Everything predicted to miss...
  cfg.shed_solve_estimate_ms = 50.0;  // ...with the predictor fully primed.
  ReconstructionEngine engine(cfg);

  const auto windows = numbered_windows(8);
  const auto result = engine.reconstruct(windows);
  ASSERT_EQ(result.windows.size(), windows.size());
  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    EXPECT_EQ(result.windows[i].window_index, windows[i].window_index);
    EXPECT_FALSE(result.windows[i].signal.empty()) << "window " << i << " was shed";
  }
  const auto snap = engine.slo().snapshot();
  EXPECT_EQ(snap.completed, windows.size());
  EXPECT_EQ(snap.shed_routine + snap.shed_urgent, 0u);
  EXPECT_EQ(snap.rejected, 0u) << "backpressure retries are not rejections";
}

TEST(DeadlineShedding, LearnsSolveTimeFromCompletionsWhenNoEstimateIsPinned) {
  auto cfg = fast_engine(0);
  cfg.queue_capacity = 2;
  cfg.deadline_shedding = true;
  cfg.slo.deadline_ms = 0.0001;  // Far below any real solve: all doomed.
  ReconstructionEngine engine(cfg);

  auto windows = numbered_windows(5);
  // Prime the EWMA with one completed solve.
  ASSERT_TRUE(engine.try_submit(std::move(windows[0])).has_value());
  ASSERT_TRUE(engine.poll().has_value());

  ASSERT_TRUE(engine.try_submit(std::move(windows[1])).has_value());
  ASSERT_TRUE(engine.try_submit(std::move(windows[2])).has_value());
  // With a measured estimate the predictor can now find a victim.
  ASSERT_TRUE(engine.try_submit(std::move(windows[3])).has_value());
  EXPECT_EQ(engine.slo().snapshot().shed_routine, 1u);
  EXPECT_EQ(engine.drain().size(), 2u);
}

}  // namespace
}  // namespace wbsn::host
