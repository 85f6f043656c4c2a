#include "host/reconstruction_engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "cs/sensing_matrix.hpp"
#include "host/work_queue.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace wbsn::host {
namespace {

// Small, fast workload: short windows and a truncated solver so the full
// thread-count sweep stays cheap in Debug/ASan CI jobs.
RecordCompressionConfig fast_compression() {
  RecordCompressionConfig cfg;
  cfg.window_samples = 128;
  cfg.cr_percent = 50.0;
  return cfg;
}

EngineConfig fast_engine(int threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.fista.max_iterations = 40;
  cfg.fista.debias_iterations = 10;
  return cfg;
}

sig::Record make_record(std::uint64_t seed, int beats) {
  sig::SynthConfig synth;
  synth.num_leads = 2;
  synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats}};
  sig::Rng rng(seed);
  return synthesize_ecg(synth, rng);
}

std::vector<CompressedWindow> two_patient_batch() {
  auto batch = compress_record(make_record(11, 8), /*patient_id=*/1,
                               fast_compression());
  auto more = compress_record(make_record(22, 8), /*patient_id=*/2,
                              fast_compression());
  batch.insert(batch.end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
  return batch;
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(CompressRecord, EmitsOneItemPerFullWindowPerLead) {
  const auto record = make_record(7, 10);
  const auto cfg = fast_compression();
  const auto batch = compress_record(record, 42, cfg);

  const std::size_t per_lead = record.num_samples() / cfg.window_samples;
  ASSERT_EQ(batch.size(), per_lead * record.num_leads());

  const std::size_t m = cs::rows_for_cr(cfg.cr_percent, cfg.window_samples);
  std::set<std::uint32_t> indices;
  for (const auto& w : batch) {
    EXPECT_EQ(w.patient_id, 42u);
    EXPECT_EQ(w.window_samples, cfg.window_samples);
    EXPECT_EQ(w.measurements.size(), m);
    EXPECT_EQ(w.reference.size(), cfg.window_samples);
    indices.insert(w.window_index);
  }
  EXPECT_EQ(indices.size(), batch.size()) << "window_index must be unique";
}

TEST(ReconstructionEngine, EmptyBatch) {
  ReconstructionEngine engine(fast_engine(2));
  const auto result = engine.reconstruct({});
  EXPECT_TRUE(result.windows.empty());
  EXPECT_TRUE(result.patients.empty());
  EXPECT_EQ(result.records_per_second, 0.0);
}

TEST(ReconstructionEngine, BitIdenticalAcrossThreadCounts) {
  const auto batch = two_patient_batch();

  ReconstructionEngine serial(fast_engine(0));
  const auto reference = serial.reconstruct(batch);
  ASSERT_EQ(reference.windows.size(), batch.size());

  for (const int threads : {1, 3}) {
    ReconstructionEngine engine(fast_engine(threads));
    const auto result = engine.reconstruct(batch);
    ASSERT_EQ(result.windows.size(), reference.windows.size());
    for (std::size_t i = 0; i < result.windows.size(); ++i) {
      EXPECT_TRUE(bit_identical(result.windows[i].signal,
                                reference.windows[i].signal))
          << "window " << i << " differs at threads=" << threads;
      EXPECT_EQ(result.windows[i].iterations, reference.windows[i].iterations);
      EXPECT_EQ(result.windows[i].snr_db, reference.windows[i].snr_db);
    }
  }
}

TEST(ReconstructionEngine, OversubscribedQueueStillCompletes) {
  auto cfg = fast_engine(2);
  cfg.queue_capacity = 2;  // Far smaller than the batch: forces backpressure.
  ReconstructionEngine engine(cfg);

  const auto batch = two_patient_batch();
  ASSERT_GT(batch.size(), engine.thread_count() * 4u);
  const auto result = engine.reconstruct(batch);

  ASSERT_EQ(result.windows.size(), batch.size());
  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    EXPECT_EQ(result.windows[i].signal.size(), batch[i].window_samples)
        << "window " << i << " was dropped or truncated";
  }
}

TEST(ReconstructionEngine, PerPatientStats) {
  const auto batch = two_patient_batch();
  ReconstructionEngine engine(fast_engine(2));
  const auto result = engine.reconstruct(batch);

  ASSERT_EQ(result.patients.size(), 2u);
  EXPECT_EQ(result.patients[0].patient_id, 1u);
  EXPECT_EQ(result.patients[1].patient_id, 2u);
  std::size_t total = 0;
  for (const auto& p : result.patients) {
    total += p.windows;
    EXPECT_TRUE(std::isfinite(p.mean_snr_db));
    EXPECT_GT(p.mean_snr_db, 0.0) << "reconstruction should beat 0 dB";
    EXPECT_GE(p.max_latency_ms, p.mean_latency_ms * 0.999);
    EXPECT_GT(p.mean_latency_ms, 0.0);
  }
  EXPECT_EQ(total, batch.size());
  EXPECT_GT(result.records_per_second, 0.0);
}

TEST(ReconstructionEngine, NoReferenceMeansNanSnr) {
  auto cfg = fast_compression();
  cfg.keep_reference = false;
  const auto batch = compress_record(make_record(5, 6), 9, cfg);
  ASSERT_FALSE(batch.empty());

  ReconstructionEngine engine(fast_engine(1));
  const auto result = engine.reconstruct(batch);
  for (const auto& w : result.windows) EXPECT_TRUE(std::isnan(w.snr_db));
  ASSERT_EQ(result.patients.size(), 1u);
  EXPECT_TRUE(std::isnan(result.patients[0].mean_snr_db));
}

TEST(ReconstructionEngine, ReusableAcrossBatches) {
  ReconstructionEngine engine(fast_engine(2));
  const auto batch = two_patient_batch();
  const auto first = engine.reconstruct(batch);
  const auto second = engine.reconstruct(batch);  // Matrix cache hit path.
  ASSERT_EQ(first.windows.size(), second.windows.size());
  for (std::size_t i = 0; i < first.windows.size(); ++i) {
    EXPECT_TRUE(
        bit_identical(first.windows[i].signal, second.windows[i].signal));
  }
}

// --- Streaming interface ----------------------------------------------------

// Key results by identity so completion-order outputs can be compared to an
// input-order reference.
using WindowKey = std::pair<std::uint32_t, std::uint32_t>;

std::map<WindowKey, WindowResult> by_identity(std::vector<WindowResult> results) {
  std::map<WindowKey, WindowResult> out;
  for (auto& r : results) {
    const WindowKey key{r.patient_id, r.window_index};
    EXPECT_TRUE(out.emplace(key, std::move(r)).second) << "duplicate result";
  }
  return out;
}

TEST(StreamingEngine, SubmitPollDrainDeliversEverything) {
  const auto batch = two_patient_batch();
  ReconstructionEngine engine(fast_engine(2));

  std::vector<WindowResult> results;
  std::uint64_t last_ticket = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    CompressedWindow copy = batch[i];
    const std::uint64_t ticket = engine.submit(std::move(copy));
    EXPECT_TRUE(i == 0 || ticket > last_ticket) << "tickets must be monotonic";
    last_ticket = ticket;
    if (auto r = engine.poll()) results.push_back(std::move(*r));  // Opportunistic.
  }
  auto rest = engine.drain();
  results.insert(results.end(), std::make_move_iterator(rest.begin()),
                 std::make_move_iterator(rest.end()));

  ASSERT_EQ(results.size(), batch.size());
  EXPECT_EQ(engine.in_flight(), 0u);
  const auto keyed = by_identity(std::move(results));
  for (const auto& window : batch) {
    const auto found = keyed.find({window.patient_id, window.window_index});
    ASSERT_NE(found, keyed.end());
    EXPECT_EQ(found->second.signal.size(), window.window_samples);
    EXPECT_GE(found->second.e2e_ms, found->second.latency_ms)
        << "enqueue->complete includes queue wait";
  }
}

TEST(StreamingEngine, SerialModePollSolvesInline) {
  const auto batch = two_patient_batch();
  ReconstructionEngine engine(fast_engine(0));
  ASSERT_EQ(engine.thread_count(), 0);

  for (const auto& window : batch) {
    CompressedWindow copy = window;
    ASSERT_TRUE(engine.try_submit(std::move(copy)).has_value());
    const auto result = engine.poll();  // Solves this window in this thread.
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->signal.size(), window.window_samples);
  }
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_FALSE(engine.poll().has_value());
}

TEST(StreamingEngine, CallerSolvesOnlyTheWindowsItHeld) {
  // Solver::kCallerIfCheap holds a window only on a threaded engine, and
  // there only below the handoff cost or when no other window is in
  // flight; the estimate is pinned so the verdict does not depend on how
  // fast this build solves.
  const auto batch = two_patient_batch();
  ASSERT_GE(batch.size(), 4u);
  const auto admit = [&](ReconstructionEngine& engine) {
    for (std::size_t i = 0; i < 4; ++i) {
      CompressedWindow copy = batch[i];
      ASSERT_TRUE(engine.try_submit(std::move(copy), Solver::kCallerIfCheap).has_value());
    }
  };
  auto cheap = fast_engine(1);
  cheap.shed_solve_estimate_ms = 0.002;
  ReconstructionEngine held(cheap);
  admit(held);
  EXPECT_EQ(held.backlog(cs::WindowPriority::kUrgent) + held.backlog(cs::WindowPriority::kRoutine),
            0u)
      << "held windows never enter the workers' queue";
  EXPECT_EQ(held.solve_held(), 4u) << "no worker was woken for them";
  EXPECT_EQ(held.worker_handoffs(), 0u);
  EXPECT_EQ(held.ready_results(), 4u);
  EXPECT_EQ(held.solve_held(), 0u);

  // Expensive: the first window reaches an idle engine and is held.  It
  // stays in flight until solve_held(), so the other three all find
  // another window in flight and go to the worker, which never sees the
  // held one.
  auto dear = fast_engine(1);
  dear.shed_solve_estimate_ms = 1.0;
  ReconstructionEngine worker_bound(dear);
  admit(worker_bound);
  EXPECT_EQ(worker_bound.worker_handoffs(), 3u);
  EXPECT_EQ(worker_bound.solve_held(), 1u);
  EXPECT_EQ(worker_bound.drain().size(), 4u);
  EXPECT_EQ(worker_bound.solve_held(), 0u);

  cheap.threads = 0;
  ReconstructionEngine serial(cheap);
  admit(serial);
  EXPECT_EQ(serial.solve_held(), 0u) << "serial mode keeps solving in poll()";
  EXPECT_EQ(serial.worker_handoffs(), 0u);
  EXPECT_EQ(serial.drain().size(), 4u);
}

TEST(StreamingEngine, CallerSolvesItsHeldWindowBesideAnAwakeWorker) {
  // Each round holds one window (it reaches an idle engine) and hands the
  // next to the worker, and the caller solves only once the awake worker
  // has emptied its queue.  The worker pops only that queue, so the held
  // window is still there for the caller in every round.
  auto cfg = fast_engine(1);
  cfg.shed_solve_estimate_ms = 1.0;
  ReconstructionEngine engine(cfg);
  const auto batch = two_patient_batch();
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE(round);
    for (std::size_t i = 0; i < 2; ++i) {
      CompressedWindow copy = batch[i];
      ASSERT_TRUE(engine.try_submit(std::move(copy), Solver::kCallerIfCheap).has_value());
    }
    while (engine.backlog(cs::WindowPriority::kUrgent) +
               engine.backlog(cs::WindowPriority::kRoutine) >
           0) {
      std::this_thread::yield();
    }
    ASSERT_EQ(engine.solve_held(), 1u);
    ASSERT_EQ(engine.drain().size(), 2u);
  }
  EXPECT_EQ(engine.worker_handoffs(), 200u);
}

TEST(StreamingEngine, SheddingNeverPicksAHeldWindow) {
  // Every queued window is predicted to miss the deadline, so an arrival
  // at capacity sheds whenever a victim is queued for a worker.  Held
  // windows are not candidates: the caller solves them before it next
  // reads.
  auto cfg = fast_engine(1);
  cfg.deadline_shedding = true;
  cfg.slo.deadline_ms = 1e-6;
  const auto batch = two_patient_batch();
  ASSERT_GE(batch.size(), 4u);
  const auto submit = [&](ReconstructionEngine& engine, std::size_t i) {
    CompressedWindow copy = batch[i];
    return engine.try_submit(std::move(copy), Solver::kCallerIfCheap).has_value();
  };

  // Only held windows in flight: nothing to shed, so the arrival bounces.
  auto cheap = cfg;
  cheap.queue_capacity = 2;
  cheap.shed_solve_estimate_ms = 0.002;
  ReconstructionEngine held_only(cheap);
  ASSERT_TRUE(submit(held_only, 0));
  ASSERT_TRUE(submit(held_only, 1));
  EXPECT_FALSE(submit(held_only, 2));
  EXPECT_EQ(held_only.slo().snapshot().shed_routine, 0u);
  EXPECT_EQ(held_only.slo().snapshot().rejected, 1u);
  EXPECT_EQ(held_only.solve_held(), 2u);
  EXPECT_EQ(held_only.drain().size(), 2u);

  // A held window and two worker-bound ones behind it, the worker pinned
  // slow on the first of them: the arrival sheds a worker-bound window
  // and, taking over its slot, goes to the worker itself.
  auto dear = cfg;
  dear.queue_capacity = 3;
  dear.shed_solve_estimate_ms = 1.0;
  dear.fista.max_iterations = 8000;
  dear.fista.tolerance = 0.0;
  ReconstructionEngine mixed(dear);
  for (std::size_t i = 0; i < 3; ++i) ASSERT_TRUE(submit(mixed, i));
  ASSERT_EQ(mixed.worker_handoffs(), 2u);
  EXPECT_TRUE(submit(mixed, 3));
  EXPECT_EQ(mixed.slo().snapshot().shed_routine, 1u);
  EXPECT_EQ(mixed.solve_held(), 1u);
  const auto results = mixed.drain();
  ASSERT_EQ(results.size(), 3u);
  std::set<std::uint32_t> indices;
  for (const auto& r : results) indices.insert(r.window_index);
  EXPECT_TRUE(indices.count(batch[0].window_index)) << "the held window was solved";
}

TEST(StreamingEngine, EngineDestroyedWithHeldWindowsFreesThem) {
  // Held windows never solved are freed with the engine, like queued
  // ones; the sanitizer build's leak check is what fails otherwise.
  auto cfg = fast_engine(1);
  cfg.shed_solve_estimate_ms = 0.002;
  cfg.payload_pool = std::make_shared<PayloadPool>();
  ReconstructionEngine engine(cfg);
  const auto batch = two_patient_batch();
  for (std::size_t i = 0; i < 3; ++i) {
    CompressedWindow copy = batch[i];
    ASSERT_TRUE(engine.try_submit(std::move(copy), Solver::kCallerIfCheap).has_value());
  }
  EXPECT_EQ(engine.in_flight(), 3u);
  EXPECT_EQ(engine.worker_handoffs(), 0u);
}

TEST(StreamingEngine, CallerHandsAWindowToABusyWorker) {
  // Idle means no other window in flight, not an empty queue: a window
  // admitted while the worker solves goes to that worker, so a caller at
  // saturation keeps admitting instead of solving.  The first solve runs
  // thousands of iterations, so it is still running at the second
  // admission.
  auto cfg = fast_engine(1);
  cfg.shed_solve_estimate_ms = 1.0;
  cfg.fista.max_iterations = 8000;
  cfg.fista.tolerance = 0.0;
  ReconstructionEngine engine(cfg);
  const auto batch = two_patient_batch();
  CompressedWindow first = batch[0];
  ASSERT_TRUE(engine.try_submit(std::move(first)).has_value());
  while (engine.backlog(cs::WindowPriority::kUrgent) + engine.backlog(cs::WindowPriority::kRoutine) >
         0) {
    std::this_thread::yield();  // Until the worker has taken it.
  }
  CompressedWindow second = batch[1];
  ASSERT_TRUE(engine.try_submit(std::move(second), Solver::kCallerIfCheap).has_value());
  EXPECT_EQ(engine.solve_held(), 0u);
  EXPECT_EQ(engine.worker_handoffs(), 2u);
  EXPECT_EQ(engine.drain().size(), 2u);
}

TEST(StreamingEngine, TrySubmitAppliesBackpressureAtCapacity) {
  auto cfg = fast_engine(0);
  cfg.queue_capacity = 2;
  ReconstructionEngine engine(cfg);
  ASSERT_EQ(engine.in_flight_capacity(), 2u);

  const auto batch = two_patient_batch();
  ASSERT_GE(batch.size(), 3u);
  CompressedWindow a = batch[0], b = batch[1], c = batch[2];
  ASSERT_TRUE(engine.try_submit(std::move(a)).has_value());
  ASSERT_TRUE(engine.try_submit(std::move(b)).has_value());
  EXPECT_EQ(engine.in_flight(), 2u);

  EXPECT_FALSE(engine.try_submit(std::move(c)).has_value()) << "third must bounce";
  EXPECT_EQ(c.measurements.size(), batch[2].measurements.size())
      << "rejected window must be left intact";

  ASSERT_TRUE(engine.poll().has_value());  // Frees one slot.
  EXPECT_TRUE(engine.try_submit(std::move(c)).has_value());
  EXPECT_EQ(engine.drain().size(), 2u);
}

TEST(StreamingEngine, DeterministicAcrossThreadsAndSubmissionOrder) {
  const auto batch = two_patient_batch();

  ReconstructionEngine serial(fast_engine(0));
  const auto reference = by_identity(std::move(serial.reconstruct(batch).windows));

  // Shuffle the submission order deterministically and stream with workers:
  // per-window outputs must stay bit-identical.
  std::vector<std::size_t> order(batch.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  sig::Rng rng(0xD150FDE5ULL);
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }

  for (const int threads : {1, 3}) {
    ReconstructionEngine engine(fast_engine(threads));
    for (const std::size_t i : order) {
      CompressedWindow copy = batch[i];
      engine.submit(std::move(copy));
    }
    const auto keyed = by_identity(engine.drain());
    ASSERT_EQ(keyed.size(), reference.size()) << "threads=" << threads;
    for (const auto& [key, expected] : reference) {
      const auto found = keyed.find(key);
      ASSERT_NE(found, keyed.end());
      EXPECT_TRUE(bit_identical(found->second.signal, expected.signal))
          << "patient " << key.first << " window " << key.second
          << " differs at threads=" << threads;
      EXPECT_EQ(found->second.iterations, expected.iterations);
      EXPECT_EQ(found->second.snr_db, expected.snr_db);
    }
  }
}

TEST(StreamingEngine, SloTracksLatencyThroughputAndDeadlines) {
  auto cfg = fast_engine(2);
  cfg.slo.deadline_ms = 1e-6;  // Absurdly tight: every window must violate.
  ReconstructionEngine engine(cfg);

  const auto batch = two_patient_batch();
  for (const auto& window : batch) {
    CompressedWindow copy = window;
    engine.submit(std::move(copy));
  }
  const auto results = engine.drain();
  ASSERT_EQ(results.size(), batch.size());

  const auto snap = engine.slo().snapshot();
  EXPECT_EQ(snap.submitted, batch.size());
  EXPECT_EQ(snap.completed, batch.size());
  EXPECT_EQ(snap.in_flight, 0u);
  EXPECT_GE(snap.max_in_flight, 1u);
  EXPECT_EQ(snap.deadline_violations, batch.size());
  EXPECT_GT(snap.p50_ms, 0.0);
  EXPECT_LE(snap.p50_ms, snap.p99_ms);
  EXPECT_GT(snap.throughput_per_s, 0.0);
  EXPECT_GT(snap.mean_ms, 0.0);
}

TEST(StreamingEngine, BatchWrapperMatchesStreamingResults) {
  const auto batch = two_patient_batch();
  ReconstructionEngine batch_engine(fast_engine(2));
  const auto wrapped = batch_engine.reconstruct(batch);

  ReconstructionEngine stream_engine(fast_engine(2));
  for (const auto& window : batch) {
    CompressedWindow copy = window;
    stream_engine.submit(std::move(copy));
  }
  const auto keyed = by_identity(stream_engine.drain());

  ASSERT_EQ(wrapped.windows.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // The wrapper restores input order.
    EXPECT_EQ(wrapped.windows[i].patient_id, batch[i].patient_id);
    EXPECT_EQ(wrapped.windows[i].window_index, batch[i].window_index);
    const auto found = keyed.find({batch[i].patient_id, batch[i].window_index});
    ASSERT_NE(found, keyed.end());
    EXPECT_TRUE(bit_identical(wrapped.windows[i].signal, found->second.signal));
  }
}

}  // namespace
}  // namespace wbsn::host
