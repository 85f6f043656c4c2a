// Engine-level coverage of the bounded LRU sensing-matrix cache and the
// per-patient SLO breakdown.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
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

TEST(EngineCache, LruEvictionBoundsCacheAndKeepsResultsExact) {
  auto unbounded_cfg = fast_engine(0);
  unbounded_cfg.matrix_cache_capacity = 0;
  ReconstructionEngine unbounded(unbounded_cfg);

  auto bounded_cfg = fast_engine(0);
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
  auto cfg = fast_engine(0);
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
  auto cfg = fast_engine(2);
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
  auto cfg = fast_engine(0);
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

}  // namespace
}  // namespace wbsn::host
