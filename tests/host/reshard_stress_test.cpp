// Reshard soak: the coordinator thread plays producers (several patients'
// submits, interleaved), poller and resizer in turn, while every shard's
// worker pool solves concurrently behind it — the contention shape of
// live elasticity under the single-owner contract, and a primary target
// of the TSan CI job (workers complete, record and publish while the
// coordinator drains, sweeps, extracts and adopts).  The determinism contract must hold
// through all of it: every window bit-identical to the serial reference,
// nothing lost, nothing duplicated, and the aggregate counters conserved
// once quiesced.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "host/reconstruction_fabric.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace wbsn::host {
namespace {

using WindowKey = std::pair<std::uint32_t, std::uint32_t>;

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<CompressedWindow> patient_windows(std::uint32_t patient_id, int beats) {
  sig::SynthConfig synth;
  synth.num_leads = 1;
  synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats}};
  sig::Rng rng(0x4E5A0000ULL + patient_id);
  const auto record = synthesize_ecg(synth, rng);

  RecordCompressionConfig compression;
  compression.window_samples = 128;
  compression.cr_percent = 60.0;
  return compress_record(record, patient_id, compression);
}

TEST(ReshardStress, ConcurrentProducersResizerAndPoller) {
  constexpr int kProducers = 3;
  constexpr int kBeatsPerPatient = 6;

  std::vector<std::vector<CompressedWindow>> traffic;
  std::size_t total_windows = 0;
  for (int p = 0; p < kProducers; ++p) {
    traffic.push_back(patient_windows(static_cast<std::uint32_t>(p), kBeatsPerPatient));
    for (std::size_t i = 0; i < traffic.back().size(); ++i) {
      if (i % 3 == 0) traffic.back()[i].priority = cs::WindowPriority::kUrgent;
    }
    total_windows += traffic.back().size();
  }
  ASSERT_GT(total_windows, 0u);

  std::map<WindowKey, WindowResult> reference;
  {
    EngineConfig serial_cfg;
    serial_cfg.fista.max_iterations = 25;
    serial_cfg.fista.debias_iterations = 5;
    ReconstructionEngine serial(serial_cfg);
    for (const auto& patient : traffic) {
      for (const auto& window : patient) {
        CompressedWindow copy = window;
        serial.submit(std::move(copy));
      }
    }
    for (auto& result : serial.drain()) {
      reference.emplace(WindowKey{result.patient_id, result.window_index}, std::move(result));
    }
  }
  ASSERT_EQ(reference.size(), total_windows);

  FabricConfig cfg;
  cfg.shards = 2;
  cfg.engine.threads = 2;
  cfg.engine.queue_capacity = 4;  // Small: forces backpressure during resizes.
  cfg.engine.fista.max_iterations = 25;
  cfg.engine.fista.debias_iterations = 5;
  cfg.engine.slo.deadline_ms = 1000.0;
  ReconstructionFabric fabric(cfg);

  // Producers take turns window by window; every few submits the
  // coordinator polls, and every few more it resizes along the chaos
  // harness's shard counts, so resizes land with backlog in flight.
  std::vector<WindowResult> retrieved;
  std::vector<ResizeReport> reports;
  const int plan[] = {3, 1, 4, 2, 8, 2};
  std::size_t submitted = 0;
  for (std::size_t i = 0; submitted < total_windows; ++i) {
    for (const auto& patient : traffic) {
      if (i >= patient.size()) continue;
      CompressedWindow copy = patient[i];
      fabric.submit(std::move(copy));  // Blocks on backpressure.
      ++submitted;
      if (submitted % 2 == 0) {
        if (auto result = fabric.poll()) retrieved.push_back(std::move(*result));
      }
      if (submitted % 5 == 0) reports.push_back(fabric.resize(plan[reports.size() % std::size(plan)]));
    }
  }
  for (auto&& result : fabric.drain()) retrieved.push_back(std::move(result));

  ASSERT_GE(reports.size(), 1u) << "the schedule must resize at least once";
  EXPECT_EQ(fabric.epoch(), reports.size());

  ASSERT_EQ(retrieved.size(), total_windows) << "no window may be lost across resizes";
  std::map<WindowKey, const WindowResult*> seen;
  for (const auto& result : retrieved) {
    EXPECT_TRUE(seen.emplace(WindowKey{result.patient_id, result.window_index}, &result).second)
        << "duplicate window delivered";
  }
  for (const auto& [key, expected] : reference) {
    const auto found = seen.find(key);
    ASSERT_NE(found, seen.end())
        << "patient " << key.first << " window " << key.second << " lost";
    EXPECT_TRUE(bit_identical(found->second->signal, expected.signal))
        << "resharding changed patient " << key.first << " window " << key.second;
    EXPECT_EQ(found->second->iterations, expected.iterations);
  }

  // Quiesced conservation across the whole topology history (live and
  // retired shards both fold into the aggregate).
  const auto snap = fabric.slo_snapshot();
  EXPECT_EQ(snap.submitted, total_windows);
  EXPECT_EQ(snap.completed, total_windows);
  EXPECT_EQ(snap.rejected, 0u) << "blocking submits never reject";
  EXPECT_EQ(snap.shed_routine + snap.shed_urgent, 0u) << "shedding is off";
  EXPECT_EQ(snap.in_flight, 0u);

  const auto urgent = fabric.lane_slo_snapshot(cs::WindowPriority::kUrgent);
  const auto routine = fabric.lane_slo_snapshot(cs::WindowPriority::kRoutine);
  EXPECT_EQ(urgent.completed + routine.completed, total_windows)
      << "lane counters must survive retirement";
}

TEST(ReshardStress, ResizeStormWhileIdleIsHarmless) {
  // Back-to-back resizes with no traffic in flight: every epoch opens and
  // closes cleanly, retired shards retire at once, and a burst of
  // traffic afterwards lands on the final topology intact.
  FabricConfig cfg;
  cfg.shards = 1;
  cfg.engine.threads = 2;
  cfg.engine.fista.max_iterations = 25;
  cfg.engine.fista.debias_iterations = 5;
  ReconstructionFabric fabric(cfg);

  for (int step = 0; step < 12; ++step) {
    const int target = 1 + (step * 3) % 8;
    const auto report = fabric.resize(target);
    EXPECT_EQ(report.shards_after, static_cast<std::size_t>(target));
    EXPECT_EQ(fabric.shard_count(), static_cast<std::size_t>(target));
  }
  EXPECT_EQ(fabric.epoch(), 12u);

  const auto windows = patient_windows(42, 4);
  for (const auto& window : windows) {
    CompressedWindow copy = window;
    fabric.submit(std::move(copy));
  }
  EXPECT_EQ(fabric.drain().size(), windows.size());
  const auto snap = fabric.slo_snapshot();
  EXPECT_EQ(snap.completed, windows.size());
  EXPECT_EQ(snap.in_flight, 0u);
}

}  // namespace
}  // namespace wbsn::host
