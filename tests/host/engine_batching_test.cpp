// Engine-level coverage for this PR's features: the batch_windows knob
// (bit-identity at every width), the bounded LRU sensing-matrix cache,
// and the per-patient SLO breakdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "host/reconstruction_engine.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace wbsn::host {
namespace {

RecordCompressionConfig fast_compression() {
  RecordCompressionConfig cfg;
  cfg.window_samples = 128;
  cfg.cr_percent = 50.0;
  return cfg;
}

EngineConfig fast_engine(int threads, int batch_windows) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.batch_windows = batch_windows;
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
  auto batch = compress_record(make_record(31, 8), /*patient_id=*/1, fast_compression());
  auto more = compress_record(make_record(32, 8), /*patient_id=*/2, fast_compression());
  batch.insert(batch.end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
  return batch;
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(EngineBatching, EveryBatchWidthBitIdenticalToSerial) {
  const auto batch = two_patient_batch();
  ReconstructionEngine serial(fast_engine(0, 1));
  const auto reference = serial.reconstruct(batch);
  ASSERT_EQ(reference.windows.size(), batch.size());

  for (const int threads : {0, 2}) {
    for (const int batch_windows : {4, 8}) {
      ReconstructionEngine engine(fast_engine(threads, batch_windows));
      const auto result = engine.reconstruct(batch);
      ASSERT_EQ(result.windows.size(), reference.windows.size());
      for (std::size_t i = 0; i < result.windows.size(); ++i) {
        EXPECT_TRUE(bit_identical(result.windows[i].signal, reference.windows[i].signal))
            << "window " << i << " threads=" << threads
            << " batch_windows=" << batch_windows;
        EXPECT_EQ(result.windows[i].iterations, reference.windows[i].iterations)
            << "window " << i << " threads=" << threads
            << " batch_windows=" << batch_windows;
      }
    }
  }
}

TEST(EngineBatching, MixedMatricesWithinOnePopStillCorrect) {
  // Two patients -> distinct matrix seeds per lead: a worker popping a
  // full batch gets a mix of matrices and must split it into same-matrix
  // groups without mixing windows up.
  const auto batch = two_patient_batch();
  ReconstructionEngine serial(fast_engine(0, 1));
  const auto reference = serial.reconstruct(batch);

  // Submit everything before any worker-free solving happens: serial mode
  // with a huge batch_windows pops the whole backlog in one help_some().
  auto cfg = fast_engine(0, 64);
  ReconstructionEngine engine(cfg);
  for (const auto& window : batch) {
    CompressedWindow copy = window;
    ASSERT_TRUE(engine.try_submit(std::move(copy)).has_value());
  }
  const auto results = engine.drain();
  ASSERT_EQ(results.size(), batch.size());

  std::map<std::pair<std::uint32_t, std::uint32_t>, const WindowResult*> by_id;
  for (const auto& r : results) by_id[{r.patient_id, r.window_index}] = &r;
  for (const auto& expected : reference.windows) {
    const auto found = by_id.find({expected.patient_id, expected.window_index});
    ASSERT_NE(found, by_id.end());
    EXPECT_TRUE(bit_identical(found->second->signal, expected.signal))
        << "patient " << expected.patient_id << " window " << expected.window_index;
  }
}

TEST(EngineBatching, AutoSizedBatchesStayBitIdentical) {
  // batch_windows == 0: each worker sizes its pop from the backlog depth.
  // Width only moves the latency/throughput trade-off — results must stay
  // bit-identical to the serial solo-solve reference at any depth.
  const auto batch = two_patient_batch();
  ReconstructionEngine serial(fast_engine(0, 1));
  const auto reference = serial.reconstruct(batch);

  for (const int threads : {0, 2}) {
    auto cfg = fast_engine(threads, 0);
    cfg.max_auto_batch = 8;
    ReconstructionEngine engine(cfg);
    // Pre-load the whole backlog before any solving in serial mode so the
    // auto-sizer actually sees a deep queue and picks wide batches.
    for (const auto& window : batch) {
      CompressedWindow copy = window;
      engine.submit(std::move(copy));
    }
    const auto results = engine.drain();
    ASSERT_EQ(results.size(), batch.size()) << "threads=" << threads;

    std::map<std::pair<std::uint32_t, std::uint32_t>, const WindowResult*> by_id;
    for (const auto& r : results) by_id[{r.patient_id, r.window_index}] = &r;
    for (const auto& expected : reference.windows) {
      const auto found = by_id.find({expected.patient_id, expected.window_index});
      ASSERT_NE(found, by_id.end());
      EXPECT_TRUE(bit_identical(found->second->signal, expected.signal))
          << "patient " << expected.patient_id << " window " << expected.window_index
          << " threads=" << threads;
    }
  }
}

TEST(EngineBatching, ProductionConfigCompactsConvergedLanesBitIdentically) {
  // The shipped config: 512-sample CR50 windows, the default FistaConfig
  // (its stopping tolerance fires), auto-sized batches on two workers.
  // Windows converge at different iterations, so auto-sized batches mix
  // early and late finishers and lane compaction runs mid-solve; every
  // window must still match the serial solo solve bit for bit.
  auto batch = compress_record(make_record(41, 16), /*patient_id=*/1);
  auto more = compress_record(make_record(42, 16), /*patient_id=*/2);
  batch.insert(batch.end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
  ReconstructionEngine serial(EngineConfig{});
  const auto reference = serial.reconstruct(batch);
  ASSERT_EQ(reference.windows.size(), batch.size());

  int min_iterations = reference.windows.front().iterations;
  int max_iterations = min_iterations;
  for (const auto& w : reference.windows) {
    min_iterations = std::min(min_iterations, w.iterations);
    max_iterations = std::max(max_iterations, w.iterations);
  }
  EXPECT_LT(max_iterations, EngineConfig{}.fista.max_iterations)
      << "the stopping test never fired: compaction is not exercised";
  EXPECT_LT(min_iterations, max_iterations) << "no mixed-convergence batch possible";

  EngineConfig cfg;
  cfg.threads = 2;
  cfg.batch_windows = 0;
  ReconstructionEngine engine(cfg);
  for (const auto& window : batch) {
    CompressedWindow copy = window;
    engine.submit(std::move(copy));
  }
  const auto results = engine.drain();
  ASSERT_EQ(results.size(), batch.size());

  std::map<std::pair<std::uint32_t, std::uint32_t>, const WindowResult*> by_id;
  for (const auto& r : results) by_id[{r.patient_id, r.window_index}] = &r;
  for (const auto& expected : reference.windows) {
    const auto found = by_id.find({expected.patient_id, expected.window_index});
    ASSERT_NE(found, by_id.end());
    EXPECT_TRUE(bit_identical(found->second->signal, expected.signal))
        << "patient " << expected.patient_id << " window " << expected.window_index;
    EXPECT_EQ(found->second->iterations, expected.iterations)
        << "patient " << expected.patient_id << " window " << expected.window_index;
  }
}

TEST(EngineBatching, SeedGroupingTurnsInterleavedSubmitsIntoSameMatrixPops) {
  // Two patients compressed under distinct matrix seeds, submitted
  // interleaved A,B,A,B.  In FIFO order a width-2 pop always straddles
  // the seeds, so process_batch solves singletons and the grouped-windows
  // counter stays at zero.  With group_submits_by_seed each arrival is
  // inserted next to the newest queued window sharing its matrix, pops
  // become {A,A},{B,B}, and every window solves inside a >=2 group.
  sig::Record record = make_record(81, 6);
  record.leads.resize(1);
  RecordCompressionConfig seed_a = fast_compression();
  seed_a.matrix_seed = 100;
  RecordCompressionConfig seed_b = fast_compression();
  seed_b.matrix_seed = 110;
  const auto batch_a = compress_record(record, 1, seed_a);
  const auto batch_b = compress_record(record, 2, seed_b);
  ASSERT_GE(batch_a.size(), 2u);
  ASSERT_GE(batch_b.size(), 2u);
  std::vector<CompressedWindow> interleaved;
  for (std::size_t i = 0; i < 2; ++i) {
    interleaved.push_back(batch_a[i]);
    interleaved.push_back(batch_b[i]);
  }

  ReconstructionEngine reference(fast_engine(0, 1));
  const auto expected = reference.reconstruct(interleaved);

  for (const bool grouped : {false, true}) {
    auto cfg = fast_engine(0, 2);  // Width-2 pops; serial so nothing drains early.
    cfg.group_submits_by_seed = grouped;
    ReconstructionEngine engine(cfg);
    for (const auto& window : interleaved) {
      CompressedWindow copy = window;
      ASSERT_TRUE(engine.try_submit(std::move(copy)).has_value());
    }
    const auto results = engine.drain();
    ASSERT_EQ(results.size(), interleaved.size());

    std::map<std::pair<std::uint32_t, std::uint32_t>, const WindowResult*> by_id;
    for (const auto& r : results) by_id[{r.patient_id, r.window_index}] = &r;
    for (const auto& want : expected.windows) {
      const auto found = by_id.find({want.patient_id, want.window_index});
      ASSERT_NE(found, by_id.end());
      EXPECT_TRUE(bit_identical(found->second->signal, want.signal))
          << "grouped=" << grouped << " patient " << want.patient_id << " window "
          << want.window_index;
    }
    const auto snap = engine.slo().snapshot();
    EXPECT_EQ(snap.grouped_windows, grouped ? 4u : 0u)
        << "the counter is the observable proof grouping changed the pops";
  }
}

TEST(EngineCache, LruEvictionBoundsCacheAndKeepsResultsExact) {
  auto unbounded_cfg = fast_engine(0, 1);
  unbounded_cfg.matrix_cache_capacity = 0;
  ReconstructionEngine unbounded(unbounded_cfg);

  auto bounded_cfg = fast_engine(0, 1);
  bounded_cfg.matrix_cache_capacity = 2;
  ReconstructionEngine bounded(bounded_cfg);

  // 5 distinct matrix seeds, visited twice each (second pass re-misses in
  // the bounded engine after eviction and must rebuild identically).
  // Spaced by 10 because the per-lead seed is base + lead: adjacent bases
  // would alias across the record's two leads.
  const auto record = make_record(41, 6);
  std::vector<CompressedWindow> windows;
  for (std::uint64_t seed = 100; seed < 150; seed += 10) {
    RecordCompressionConfig cfg = fast_compression();
    cfg.matrix_seed = seed;
    auto batch = compress_record(record, static_cast<std::uint32_t>(seed), cfg);
    windows.insert(windows.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
  }

  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& window : windows) {
      CompressedWindow a = window;
      CompressedWindow b = window;
      ASSERT_TRUE(unbounded.try_submit(std::move(a)).has_value());
      ASSERT_TRUE(bounded.try_submit(std::move(b)).has_value());
      const auto ra = unbounded.poll();
      const auto rb = bounded.poll();
      ASSERT_TRUE(ra.has_value());
      ASSERT_TRUE(rb.has_value());
      EXPECT_TRUE(bit_identical(ra->signal, rb->signal))
          << "pass " << pass << " patient " << window.patient_id << " window "
          << window.window_index;
      EXPECT_LE(bounded.cached_matrices(), 2u);
    }
  }
  // 2 leads x 5 seeds = 10 distinct matrices; the bounded engine held at
  // most 2 while the unbounded one accumulated all of them.
  EXPECT_EQ(unbounded.cached_matrices(), 10u);
  EXPECT_EQ(bounded.cached_matrices(), 2u);
}

TEST(EngineCache, RepeatSeedsStayCached) {
  auto cfg = fast_engine(0, 1);
  cfg.matrix_cache_capacity = 4;
  ReconstructionEngine engine(cfg);
  const auto batch = compress_record(make_record(51, 8), 7, fast_compression());
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& window : batch) {
      CompressedWindow copy = window;
      ASSERT_TRUE(engine.try_submit(std::move(copy)).has_value());
      ASSERT_TRUE(engine.poll().has_value());
    }
  }
  EXPECT_EQ(engine.cached_matrices(), 2u);  // One per lead, never evicted.
}

TEST(EnginePatientSlo, PerPatientBreakdownTracksCompletions) {
  auto cfg = fast_engine(2, 2);
  cfg.slo.deadline_ms = 1e-6;  // Absurdly tight: every window violates.
  ReconstructionEngine engine(cfg);

  const auto batch = two_patient_batch();
  std::map<std::uint32_t, std::size_t> expected_counts;
  for (const auto& window : batch) {
    ++expected_counts[window.patient_id];
    CompressedWindow copy = window;
    engine.submit(std::move(copy));
  }
  const auto results = engine.drain();
  ASSERT_EQ(results.size(), batch.size());

  const auto per_patient = engine.patient_slo_snapshots();
  ASSERT_EQ(per_patient.size(), expected_counts.size());
  std::uint64_t total_completed = 0;
  for (std::size_t i = 0; i < per_patient.size(); ++i) {
    const auto& p = per_patient[i];
    if (i > 0) {
      EXPECT_LT(per_patient[i - 1].patient_id, p.patient_id) << "sorted order";
    }
    ASSERT_TRUE(expected_counts.count(p.patient_id));
    EXPECT_EQ(p.slo.submitted, expected_counts[p.patient_id]);
    EXPECT_EQ(p.slo.completed, expected_counts[p.patient_id]);
    EXPECT_EQ(p.slo.deadline_violations, expected_counts[p.patient_id]);
    EXPECT_EQ(p.slo.in_flight, 0u);
    EXPECT_GT(p.slo.p50_ms, 0.0);
    EXPECT_GE(p.slo.max_ms, p.slo.p50_ms * 0.5);
    total_completed += p.slo.completed;
  }
  EXPECT_EQ(total_completed, batch.size());

  // Engine-wide tracker still aggregates everything.
  EXPECT_EQ(engine.slo().snapshot().completed, batch.size());
}

TEST(EnginePatientSlo, TrackedPatientCapBoundsTheMap) {
  auto cfg = fast_engine(0, 1);
  cfg.max_tracked_patients = 3;
  ReconstructionEngine engine(cfg);

  const auto windows = compress_record(make_record(71, 4), 0, fast_compression());
  ASSERT_FALSE(windows.empty());
  // 6 distinct patient ids, one window each: only the first 3 get trackers.
  for (std::uint32_t patient = 0; patient < 6; ++patient) {
    CompressedWindow copy = windows.front();
    copy.patient_id = patient;
    ASSERT_TRUE(engine.try_submit(std::move(copy)).has_value());
    ASSERT_TRUE(engine.poll().has_value());
  }
  const auto per_patient = engine.patient_slo_snapshots();
  ASSERT_EQ(per_patient.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(per_patient[i].patient_id, i);
    EXPECT_EQ(per_patient[i].slo.completed, 1u);
  }
  // Untracked ids still count in the engine-wide tracker.
  EXPECT_EQ(engine.slo().snapshot().completed, 6u);
}

TEST(EnginePatientSlo, DisabledMeansEmpty) {
  auto cfg = fast_engine(0, 1);
  cfg.per_patient_slo = false;
  ReconstructionEngine engine(cfg);
  const auto batch = compress_record(make_record(61, 4), 3, fast_compression());
  for (const auto& window : batch) {
    CompressedWindow copy = window;
    ASSERT_TRUE(engine.try_submit(std::move(copy)).has_value());
    ASSERT_TRUE(engine.poll().has_value());
  }
  EXPECT_TRUE(engine.patient_slo_snapshots().empty());
}

}  // namespace
}  // namespace wbsn::host
