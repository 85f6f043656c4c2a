// Pooled-path race soak (a ThreadSanitizer target): the coordinator
// thread draws window shells from one shared PayloadPool, submits them,
// polls and recycles results back into it, and live-resizes the fabric,
// while every shard's worker pool recycles measurements into the same
// pool after each solve.  The pool's freelists are the cross-thread
// surface — the coordinator, the workers of every shard, and resize-built
// engines all touch the same object — so this soak pins: no data races,
// no lost or duplicated windows, results bit-identical to the serial
// reference, and conserved pool counters (every recycled buffer was
// acquired or dropped exactly once).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "host/payload_pool.hpp"
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
  sig::Rng rng(0x9001D000ULL + patient_id);
  const auto record = synthesize_ecg(synth, rng);

  RecordCompressionConfig compression;
  compression.window_samples = 128;
  compression.cr_percent = 60.0;
  return compress_record(record, patient_id, compression);
}

TEST(PoolStress, PooledSubmitPollRaceLiveResize) {
  constexpr int kProducers = 3;
  constexpr int kBeatsPerPatient = 5;

  std::vector<std::vector<CompressedWindow>> traffic;
  std::size_t total_windows = 0;
  for (int p = 0; p < kProducers; ++p) {
    traffic.push_back(patient_windows(static_cast<std::uint32_t>(p), kBeatsPerPatient));
    total_windows += traffic.back().size();
  }
  ASSERT_GT(total_windows, 0u);

  // Serial unpooled reference.
  std::map<WindowKey, std::vector<double>> expected;
  {
    ReconstructionEngine serial{EngineConfig{}};
    for (const auto& windows : traffic) {
      for (const auto& window : windows) serial.submit(window);
    }
    for (auto& result : serial.drain()) {
      expected.emplace(WindowKey{result.patient_id, result.window_index},
                       std::move(result.signal));
    }
  }

  auto pool = std::make_shared<PayloadPool>();
  FabricConfig cfg;
  cfg.shards = 2;
  cfg.engine.threads = 2;
  cfg.engine.payload_pool = pool;
  ReconstructionFabric fabric(cfg);

  std::map<WindowKey, std::vector<double>> streamed;
  const auto keep = [&](WindowResult&& result) {
    streamed.emplace(WindowKey{result.patient_id, result.window_index},
                     std::vector<double>(result.signal));
    pool->recycle(std::move(result));
  };

  // Patients take turns window by window; the coordinator polls after
  // every submit and walks the fabric through an elasticity plan while
  // the workers solve and recycle.
  const int plan[] = {3, 1, 4, 2};
  std::size_t submitted = 0;
  std::size_t resizes = 0;
  for (std::size_t i = 0; submitted < total_windows; ++i) {
    for (const auto& windows : traffic) {
      if (i >= windows.size()) continue;
      const CompressedWindow& tmpl = windows[i];
      CompressedWindow window = pool->acquire_window();
      window.patient_id = tmpl.patient_id;
      window.window_index = tmpl.window_index;
      window.matrix_seed = tmpl.matrix_seed;
      window.window_samples = tmpl.window_samples;
      window.ones_per_column = tmpl.ones_per_column;
      window.priority = tmpl.priority;
      window.measurements.assign(tmpl.measurements.begin(), tmpl.measurements.end());
      window.reference.assign(tmpl.reference.begin(), tmpl.reference.end());
      fabric.submit(std::move(window));  // Blocking: nothing is shed.
      ++submitted;
      if (auto result = fabric.poll()) keep(std::move(*result));
      if (submitted % 4 == 0 && resizes < std::size(plan)) (void)fabric.resize(plan[resizes++]);
    }
  }
  for (auto&& result : fabric.drain()) keep(std::move(result));
  EXPECT_EQ(resizes, std::size(plan)) << "every planned resize must run with traffic live";

  // Nothing lost, nothing duplicated, everything bit-identical.
  ASSERT_EQ(streamed.size(), total_windows);
  for (const auto& [key, signal] : streamed) {
    const auto found = expected.find(key);
    ASSERT_NE(found, expected.end());
    EXPECT_TRUE(bit_identical(found->second, signal))
        << "patient " << key.first << " window " << key.second;
  }

  // Counter conservation: every buffer the pool handed out (hit or miss)
  // was either recycled back or dropped at capacity; nothing vanished.
  const auto stats = pool->stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_GT(stats.recycled, 0u);
  EXPECT_EQ(stats.dropped, 0u);  // Capacity 1024 dwarfs this traffic.
}

}  // namespace
}  // namespace wbsn::host
