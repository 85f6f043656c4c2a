// Streaming-engine stress: several producer threads submit interleaved
// patient traffic while a dedicated poller retrieves results concurrently
// with the worker pool — the maximal-contention shape of the submit/poll
// API, and the test the TSan CI job exists to run.  Also the determinism
// contract under that contention: every window's output must be
// bit-identical to the serial reference no matter which thread solved it
// or how submissions interleaved.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "host/reconstruction_engine.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace wbsn::host {
namespace {

// Small windows and a truncated solver keep the stress affordable under
// TSan's ~10x slowdown while still exercising every queue transition.
std::vector<CompressedWindow> patient_windows(std::uint32_t patient_id, int beats) {
  sig::SynthConfig synth;
  synth.num_leads = 1;
  synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats}};
  sig::Rng rng(0xBEA70000ULL + patient_id);
  const auto record = synthesize_ecg(synth, rng);

  RecordCompressionConfig compression;
  compression.window_samples = 128;
  compression.cr_percent = 60.0;
  return compress_record(record, patient_id, compression);
}

EngineConfig stress_config(int threads, std::size_t capacity) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.queue_capacity = capacity;  // Small: forces the backpressure paths.
  cfg.fista.max_iterations = 25;
  cfg.fista.debias_iterations = 5;
  cfg.slo.deadline_ms = 1000.0;
  return cfg;
}

using WindowKey = std::pair<std::uint32_t, std::uint32_t>;

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(StreamingStress, ConcurrentProducersPollerAndWorkers) {
  constexpr int kProducers = 3;
  constexpr int kBeatsPerPatient = 6;

  std::vector<std::vector<CompressedWindow>> traffic;
  std::size_t total_windows = 0;
  for (int p = 0; p < kProducers; ++p) {
    traffic.push_back(patient_windows(static_cast<std::uint32_t>(p), kBeatsPerPatient));
    total_windows += traffic.back().size();
  }
  ASSERT_GT(total_windows, 0u);

  // Serial reference, one engine per run so nothing is shared.
  std::map<WindowKey, WindowResult> reference;
  {
    ReconstructionEngine serial(stress_config(0, 4));
    for (const auto& patient : traffic) {
      for (const auto& window : patient) {
        CompressedWindow copy = window;
        serial.submit(std::move(copy));
        for (auto& result : serial.drain()) {
          reference.emplace(WindowKey{result.patient_id, result.window_index},
                            std::move(result));
        }
      }
    }
  }
  ASSERT_EQ(reference.size(), total_windows);

  ReconstructionEngine engine(stress_config(2, 4));

  std::vector<WindowResult> retrieved;
  std::atomic<bool> producers_done{false};
  std::thread poller([&] {
    for (;;) {
      if (auto result = engine.poll()) {
        retrieved.push_back(std::move(*result));
        continue;
      }
      if (producers_done.load(std::memory_order_acquire) && engine.in_flight() == 0) {
        // Results are published before the in-flight slot is released, but
        // possibly after the poll() above — one final sweep catches them.
        while (auto result = engine.poll()) retrieved.push_back(std::move(*result));
        return;
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (const auto& window : traffic[static_cast<std::size_t>(p)]) {
        CompressedWindow copy = window;
        engine.submit(std::move(copy));  // Blocks on backpressure.
      }
    });
  }
  for (auto& t : producers) t.join();
  producers_done.store(true, std::memory_order_release);
  poller.join();

  // The poller raced drain()-less: it must have retrieved every window.
  ASSERT_EQ(retrieved.size(), total_windows);
  EXPECT_EQ(engine.in_flight(), 0u);

  std::map<WindowKey, const WindowResult*> seen;
  for (const auto& result : retrieved) {
    EXPECT_TRUE(seen.emplace(WindowKey{result.patient_id, result.window_index}, &result)
                    .second)
        << "duplicate window delivered";
  }
  for (const auto& [key, expected] : reference) {
    const auto found = seen.find(key);
    ASSERT_NE(found, seen.end()) << "patient " << key.first << " window " << key.second
                                 << " lost";
    EXPECT_TRUE(bit_identical(found->second->signal, expected.signal))
        << "nondeterministic reconstruction for patient " << key.first << " window "
        << key.second;
    EXPECT_EQ(found->second->iterations, expected.iterations);
  }

  const auto snap = engine.slo().snapshot();
  EXPECT_EQ(snap.submitted, total_windows);
  EXPECT_EQ(snap.completed, total_windows);
  EXPECT_EQ(snap.in_flight, 0u);
  EXPECT_GT(snap.p50_ms, 0.0);
  EXPECT_GE(snap.max_in_flight, 1u);
  // SLO in-flight = submitted-but-unretrieved, which includes completed
  // results waiting for the poller, so it may exceed the solver backlog
  // capacity — but never the total traffic.
  EXPECT_LE(snap.max_in_flight, total_windows);
}

TEST(StreamingStress, MixedPriorityContentionStaysDeterministic) {
  // Producers submit interleaved urgent/routine traffic (every third
  // window urgent) while workers drain the two-lane queue and a poller
  // retrieves concurrently: lanes must change only scheduling, never
  // values, and the per-lane trackers must account for every window.
  constexpr int kProducers = 3;
  std::vector<std::vector<CompressedWindow>> traffic;
  std::size_t total_windows = 0;
  std::size_t total_urgent = 0;
  for (int p = 0; p < kProducers; ++p) {
    traffic.push_back(patient_windows(static_cast<std::uint32_t>(p), 6));
    for (std::size_t i = 0; i < traffic.back().size(); ++i) {
      if (i % 3 == 0) {
        traffic.back()[i].priority = cs::WindowPriority::kUrgent;
        ++total_urgent;
      }
    }
    total_windows += traffic.back().size();
  }
  ASSERT_GT(total_urgent, 0u);

  std::map<WindowKey, WindowResult> reference;
  {
    ReconstructionEngine serial(stress_config(0, 4));
    for (const auto& patient : traffic) {
      for (const auto& window : patient) {
        CompressedWindow copy = window;
        serial.submit(std::move(copy));
        for (auto& result : serial.drain()) {
          reference.emplace(WindowKey{result.patient_id, result.window_index},
                            std::move(result));
        }
      }
    }
  }

  ReconstructionEngine engine(stress_config(2, 4));
  std::vector<WindowResult> retrieved;
  std::atomic<bool> producers_done{false};
  std::thread poller([&] {
    for (;;) {
      if (auto result = engine.poll()) {
        retrieved.push_back(std::move(*result));
        continue;
      }
      if (producers_done.load(std::memory_order_acquire) && engine.in_flight() == 0) {
        while (auto result = engine.poll()) retrieved.push_back(std::move(*result));
        return;
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (const auto& window : traffic[static_cast<std::size_t>(p)]) {
        CompressedWindow copy = window;
        engine.submit(std::move(copy));
      }
    });
  }
  for (auto& t : producers) t.join();
  producers_done.store(true, std::memory_order_release);
  poller.join();

  ASSERT_EQ(retrieved.size(), total_windows);
  for (const auto& result : retrieved) {
    const auto found = reference.find(WindowKey{result.patient_id, result.window_index});
    ASSERT_NE(found, reference.end());
    EXPECT_TRUE(bit_identical(result.signal, found->second.signal))
        << "priority lanes must not change values";
  }

  const auto urgent = engine.lane_slo(cs::WindowPriority::kUrgent).snapshot();
  const auto routine = engine.lane_slo(cs::WindowPriority::kRoutine).snapshot();
  EXPECT_EQ(urgent.completed, total_urgent);
  EXPECT_EQ(routine.completed, total_windows - total_urgent);
  EXPECT_EQ(urgent.in_flight, 0u);
  EXPECT_EQ(routine.in_flight, 0u);
}

TEST(StreamingStress, TrackerMapCapHoldsUnderConcurrentPatientChurn) {
  // Many distinct patient ids churn through a small tracker cap while a
  // snapshot thread reads the breakdown concurrently: the map must stay
  // bounded, ids beyond the cap must still count engine-wide, and the
  // concurrent snapshots must not race the recording paths (TSan).
  auto cfg = stress_config(2, 8);
  cfg.max_tracked_patients = 4;
  ReconstructionEngine engine(cfg);

  const auto base = patient_windows(0, 4);
  ASSERT_FALSE(base.empty());
  constexpr int kProducers = 3;
  constexpr std::uint32_t kIdsPerProducer = 8;

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_LE(engine.patient_slo_snapshots().size(), 4u);
      (void)engine.slo().snapshot();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  std::atomic<std::size_t> submitted{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint32_t i = 0; i < kIdsPerProducer; ++i) {
        CompressedWindow copy = base[i % base.size()];
        copy.patient_id = static_cast<std::uint32_t>(p) * kIdsPerProducer + i;
        engine.submit(std::move(copy));
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();
  const auto results = engine.drain();
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  EXPECT_EQ(results.size(), submitted.load());
  const auto per_patient = engine.patient_slo_snapshots();
  EXPECT_EQ(per_patient.size(), 4u) << "tracker map must refuse ids beyond the cap";
  std::uint64_t tracked = 0;
  for (const auto& p : per_patient) tracked += p.slo.completed;
  EXPECT_LE(tracked, submitted.load());
  EXPECT_EQ(engine.slo().snapshot().completed, submitted.load())
      << "untracked ids still count engine-wide";
}

TEST(StreamingStress, RepeatedDrainCyclesStayConsistent) {
  // Alternating burst-submit / drain cycles on one engine: exercises queue
  // wrap-around, matrix-cache reuse across cycles, and drain() returning
  // exactly what each cycle submitted.
  ReconstructionEngine engine(stress_config(2, 8));
  const auto windows = patient_windows(7, 8);
  ASSERT_GE(windows.size(), 4u);

  std::map<WindowKey, std::vector<double>> first_cycle;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (const auto& window : windows) {
      CompressedWindow copy = window;
      engine.submit(std::move(copy));
    }
    auto results = engine.drain();
    ASSERT_EQ(results.size(), windows.size()) << "cycle " << cycle;
    for (auto& result : results) {
      const WindowKey key{result.patient_id, result.window_index};
      if (cycle == 0) {
        first_cycle.emplace(key, std::move(result.signal));
      } else {
        const auto found = first_cycle.find(key);
        ASSERT_NE(found, first_cycle.end());
        EXPECT_TRUE(bit_identical(result.signal, found->second))
            << "cycle " << cycle << " diverged";
      }
    }
  }
  EXPECT_EQ(engine.slo().snapshot().completed, 3 * windows.size());
}

TEST(StreamingStress, DrainWakesWhenTheLastCompletionLandsMidSweep) {
  // Many short drain() cycles with one tiny window per worker, so the
  // workers finish together: drain() often sweeps a result out of done_
  // before its worker has released the in-flight slot, then sleeps on the
  // slot count.  The release's wakeup must reach that sleeper.  A lost
  // wakeup hangs the test; this many rounds hit that window in roughly a
  // quarter of runs when the release notified without the mutex.
  constexpr int kWorkers = 3;
  constexpr int kRounds = 50000;
  EngineConfig cfg;
  cfg.threads = kWorkers;
  cfg.fista.max_iterations = 1;
  cfg.fista.debias_iterations = 0;
  ReconstructionEngine engine(cfg);
  CompressedWindow window;
  window.window_samples = 16;
  window.matrix_seed = 1;
  window.measurements.assign(cs::rows_for_cr(50.0, 16), 0.5);
  for (int round = 0; round < kRounds; ++round) {
    for (int w = 0; w < kWorkers; ++w) {
      CompressedWindow copy = window;
      copy.patient_id = static_cast<std::uint32_t>(w);
      copy.window_index = static_cast<std::uint32_t>(round);
      engine.submit(std::move(copy));
    }
    ASSERT_EQ(engine.drain().size(), static_cast<std::size_t>(kWorkers)) << "round " << round;
  }
}

}  // namespace
}  // namespace wbsn::host
