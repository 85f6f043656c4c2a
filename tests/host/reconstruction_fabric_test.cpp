// Sharded fabric coverage: stable patient -> shard routing, composite
// tickets, aggregate/per-shard/per-lane SLO folding, resize handoffs (over
// both shard links), and the acceptance bar of this layer — per-window
// results bit-identical across shard counts x priority mixes x thread
// counts (the determinism contract must not notice the fabric at all).
#include "host/reconstruction_fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "shard_links.hpp"
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

/// Fleet traffic: `patients` single-lead records, each compressed into a
/// handful of windows, with `urgent_frac` of all windows tagged urgent by
/// a deterministic coin so every (shards, threads, frac) cell sees the
/// same priority assignment.
std::vector<CompressedWindow> fleet_batch(int patients, double urgent_frac) {
  std::vector<CompressedWindow> batch;
  for (int p = 0; p < patients; ++p) {
    sig::SynthConfig synth;
    synth.num_leads = 1;
    synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, 6}};
    sig::Rng rng(0xFAB0000ULL + static_cast<std::uint64_t>(p));
    const auto record = synthesize_ecg(synth, rng);
    auto windows = compress_record(record, static_cast<std::uint32_t>(p), fast_compression());
    batch.insert(batch.end(), std::make_move_iterator(windows.begin()),
                 std::make_move_iterator(windows.end()));
  }
  sig::Rng coin(0x5EED5EEDULL);
  for (auto& window : batch) {
    window.priority = coin.uniform() < urgent_frac ? cs::WindowPriority::kUrgent
                                                   : cs::WindowPriority::kRoutine;
  }
  return batch;
}

using WindowKey = std::pair<std::uint32_t, std::uint32_t>;

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::map<WindowKey, WindowResult> by_identity(std::vector<WindowResult> results) {
  std::map<WindowKey, WindowResult> out;
  for (auto& r : results) {
    const WindowKey key{r.patient_id, r.window_index};
    EXPECT_TRUE(out.emplace(key, std::move(r)).second) << "duplicate result";
  }
  return out;
}

TEST(FabricRouting, ShardOfIsStableAndCoversAllShards) {
  FabricConfig cfg;
  cfg.shards = 4;
  ReconstructionFabric fabric(cfg);
  ASSERT_EQ(fabric.shard_count(), 4u);

  std::set<std::size_t> used;
  for (std::uint32_t id = 0; id < 256; ++id) {
    const std::size_t shard = fabric.shard_of(id);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, fabric.shard_of(id)) << "routing must be stable";
    used.insert(shard);
  }
  EXPECT_EQ(used.size(), 4u) << "256 ids should touch every shard";
}

TEST(FabricRouting, CompositeTicketsRoundTripAndStayUnique) {
  // Epoch | shard | local bit fields round-trip independently, including
  // at each field's maximum value.
  const auto ticket = Coordinator::compose_ticket(5, 3, 41);
  EXPECT_EQ(Coordinator::ticket_epoch(ticket), 5u);
  EXPECT_EQ(Coordinator::ticket_shard(ticket), 3u);
  EXPECT_EQ(Coordinator::ticket_local(ticket), 41u);

  constexpr std::uint32_t kMaxEpoch = (1u << Coordinator::kEpochBits) - 1;
  constexpr std::size_t kMaxShard = (std::size_t{1} << Coordinator::kShardBits) - 1;
  constexpr std::uint64_t kMaxLocal =
      (std::uint64_t{1} << Coordinator::kLocalTicketBits) - 1;
  const auto max_ticket = Coordinator::compose_ticket(kMaxEpoch, kMaxShard, kMaxLocal);
  EXPECT_EQ(Coordinator::ticket_epoch(max_ticket), kMaxEpoch);
  EXPECT_EQ(Coordinator::ticket_shard(max_ticket), kMaxShard);
  EXPECT_EQ(Coordinator::ticket_local(max_ticket), kMaxLocal);
  EXPECT_EQ(max_ticket, ~std::uint64_t{0}) << "the three fields must tile all 64 bits";

  FabricConfig cfg;
  cfg.shards = 3;
  cfg.engine = fast_engine(0);
  ReconstructionFabric fabric(cfg);
  const auto batch = fleet_batch(6, 0.25);

  std::set<std::uint64_t> tickets;
  for (const auto& window : batch) {
    CompressedWindow copy = window;
    const auto ticket = fabric.try_submit(std::move(copy));
    ASSERT_TRUE(ticket.has_value());
    EXPECT_EQ(Coordinator::ticket_epoch(*ticket), fabric.epoch());
    EXPECT_EQ(Coordinator::ticket_shard(*ticket), fabric.shard_of(window.patient_id));
    EXPECT_TRUE(tickets.insert(*ticket).second) << "fabric tickets must be unique";
  }
  const auto results = fabric.drain();
  ASSERT_EQ(results.size(), batch.size());
  for (const auto& result : results) {
    EXPECT_TRUE(tickets.count(result.ticket)) << "result ticket must echo submission";
  }
}

TEST(FabricRouting, TicketsStayUniqueAcrossAnEpochBump) {
  // A shrink-then-grow recreates a shard index with a fresh engine whose
  // local tickets restart at 0: without the epoch tag the composite
  // tickets would collide.  Submit under three topologies and check the
  // full ticket set stays collision-free and every result echoes the
  // ticket its submission returned.
  FabricConfig cfg;
  cfg.shards = 3;
  cfg.engine = fast_engine(0);
  ReconstructionFabric fabric(cfg);
  const auto batch = fleet_batch(6, 0.0);

  std::set<std::uint64_t> tickets;
  const auto submit_all = [&] {
    for (const auto& window : batch) {
      CompressedWindow copy = window;
      const auto ticket = fabric.try_submit(std::move(copy));
      ASSERT_TRUE(ticket.has_value());
      EXPECT_EQ(Coordinator::ticket_epoch(*ticket), fabric.epoch());
      EXPECT_TRUE(tickets.insert(*ticket).second)
          << "composite tickets must stay unique across epochs";
    }
  };

  submit_all();  // Epoch 0, 3 shards.
  std::vector<WindowResult> results = fabric.drain();
  fabric.resize(1);  // Retires shards 1 and 2.
  submit_all();      // Epoch 1, 1 shard.
  for (auto&& r : fabric.drain()) results.push_back(std::move(r));
  fabric.resize(3);  // Shard indices 1 and 2 come back as fresh engines.
  ASSERT_EQ(fabric.epoch(), 2u);
  submit_all();  // Epoch 2: same shard indices, local tickets restart.
  for (auto&& r : fabric.drain()) results.push_back(std::move(r));

  ASSERT_EQ(results.size(), 3 * batch.size());
  ASSERT_EQ(tickets.size(), 3 * batch.size());
  for (const auto& result : results) {
    EXPECT_TRUE(tickets.count(result.ticket)) << "result ticket must echo its submission";
  }
}

TEST(FabricRouting, OldEpochTicketsStillPollCorrectlyAfterResize) {
  // Windows in flight across a resize complete where they started and
  // come back under the epoch-tagged ticket submit() returned — not one
  // re-stamped with the new epoch.
  FabricConfig cfg;
  cfg.shards = 4;
  cfg.engine = fast_engine(0);
  ReconstructionFabric fabric(cfg);
  const auto batch = fleet_batch(6, 0.0);

  std::map<std::uint64_t, WindowKey> submitted;
  for (const auto& window : batch) {
    CompressedWindow copy = window;
    const auto ticket = fabric.try_submit(std::move(copy));
    ASSERT_TRUE(ticket.has_value());
    EXPECT_EQ(Coordinator::ticket_epoch(*ticket), 0u);
    submitted.emplace(*ticket, WindowKey{window.patient_id, window.window_index});
  }

  // Serial engines solve during poll, so nothing has completed yet; the
  // resize (a shrink, so shards 2/3 retire holding this backlog) finishes
  // the movers' windows on their original shards.
  const auto report = fabric.resize(2);
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(report.shards_before, 4u);
  EXPECT_EQ(report.shards_after, 2u);

  std::size_t polled = 0;
  while (auto result = fabric.poll()) {
    const auto found = submitted.find(result->ticket);
    ASSERT_NE(found, submitted.end())
        << "old-epoch ticket must survive the resize unchanged";
    EXPECT_EQ(Coordinator::ticket_epoch(result->ticket), 0u);
    EXPECT_EQ(found->second, (WindowKey{result->patient_id, result->window_index}));
    submitted.erase(found);
    ++polled;
  }
  EXPECT_EQ(polled, batch.size());
  EXPECT_TRUE(submitted.empty()) << "every pre-resize submission must come back";
}

// Resize over either shard link: few patients move, every mover's SLO
// history is handed off, and routing matches an independently built ring.
TEST(FabricResize, MovesFewPatientsAndHandsOffSloHistory) {
  const auto batch = fleet_batch(12, 0.25);
  std::map<std::uint32_t, std::uint64_t> per_patient;
  for (const auto& window : batch) ++per_patient[window.patient_id];
  const HashRing ring4(4, kVnodesPerShard);
  const HashRing ring5(5, kVnodesPerShard);

  for (const LinkKind kind : {LinkKind::kEngine, LinkKind::kSocket}) {
    SCOPED_TRACE(link_name(kind));
    LinkFactory shards(kind, fast_engine(2));
    Coordinator coord;
    shards.open(coord, 4);
    for (const auto& window : batch) {
      CompressedWindow copy = window;
      ASSERT_TRUE(coord.submit(copy, /*blocking=*/true).has_value());
    }
    ASSERT_EQ(coord.drain().size(), batch.size());

    const auto report = shards.resize(coord, 5);
    EXPECT_EQ(report.known_patients, 12u);
    EXPECT_LT(report.moved_patients, 12u) << "a grow must not re-route the whole fleet";
    EXPECT_EQ(report.slo_handoffs, report.moved_patients)
        << "every mover's SLO history must be handed off";

    // Routing now matches an independently built 5-shard ring, and the
    // movers are exactly the patients whose owner changed.
    std::size_t moved = 0;
    for (std::uint32_t p = 0; p < 12; ++p) {
      EXPECT_EQ(coord.owner(p), ring5.owner(p));
      moved += ring4.owner(p) != ring5.owner(p);
    }
    EXPECT_EQ(moved, report.moved_patients);

    // Each patient's history is whole on its (possibly new) owner.
    for (const auto& [patient, windows] : per_patient) {
      const auto state = coord.patient_slo_state(patient);
      ASSERT_TRUE(state.has_value()) << "patient " << patient;
      EXPECT_EQ(state->submitted, windows) << "handoff must conserve patient " << patient;
      EXPECT_EQ(state->completed, windows) << "patient " << patient;
      EXPECT_EQ(state->retrieved, windows) << "patient " << patient;
    }
    const ShardCounters books = coord.aggregate();
    EXPECT_EQ(books.submitted, batch.size());
    EXPECT_EQ(books.completed, batch.size());
  }
}

// The acceptance bar: randomized fleet traffic, submitted in shuffled
// order, must reconstruct bit-identically across every combination of
// shard count, priority mix, and thread count — the serial single-engine
// run is the one reference for all of them.
TEST(FabricDeterminism, BitIdenticalAcrossShardsPriorityMixesAndThreads) {
  for (const double urgent_frac : {0.0, 0.35, 1.0}) {
    const auto batch = fleet_batch(5, urgent_frac);

    ReconstructionEngine serial(fast_engine(0));
    const auto reference = by_identity(std::move(serial.reconstruct(batch).windows));
    ASSERT_EQ(reference.size(), batch.size());

    // Deterministically shuffled arrival order, shared by every cell.
    std::vector<std::size_t> order(batch.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    sig::Rng rng(0xD15C0ULL + static_cast<std::uint64_t>(urgent_frac * 100));
    for (std::size_t i = order.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }

    for (const int shards : {1, 2, 4}) {
      for (const int threads : {0, 2}) {
        FabricConfig cfg;
        cfg.shards = shards;
        cfg.engine = fast_engine(threads);
        ReconstructionFabric fabric(cfg);
        for (const std::size_t i : order) {
          CompressedWindow copy = batch[i];
          fabric.submit(std::move(copy));
        }
        const auto keyed = by_identity(fabric.drain());
        ASSERT_EQ(keyed.size(), reference.size())
            << "shards=" << shards << " threads=" << threads << " frac=" << urgent_frac;
        for (const auto& [key, expected] : reference) {
          const auto found = keyed.find(key);
          ASSERT_NE(found, keyed.end());
          EXPECT_TRUE(bit_identical(found->second.signal, expected.signal))
              << "patient " << key.first << " window " << key.second << " differs at shards="
              << shards << " threads=" << threads << " frac=" << urgent_frac;
          EXPECT_EQ(found->second.iterations, expected.iterations);
          EXPECT_EQ(found->second.snr_db, expected.snr_db);
        }
      }
    }
  }
}

TEST(FabricSlo, AggregateFoldsEveryShardAndLanesSplitTraffic) {
  FabricConfig cfg;
  cfg.shards = 4;
  cfg.engine = fast_engine(2);
  ReconstructionFabric fabric(cfg);

  const auto batch = fleet_batch(6, 0.4);
  std::size_t urgent = 0;
  for (const auto& window : batch) urgent += window.priority == cs::WindowPriority::kUrgent;
  ASSERT_GT(urgent, 0u);
  ASSERT_LT(urgent, batch.size());

  for (const auto& window : batch) {
    CompressedWindow copy = window;
    fabric.submit(std::move(copy));
  }
  const auto results = fabric.drain();
  ASSERT_EQ(results.size(), batch.size());

  const auto aggregate = fabric.slo_snapshot();
  EXPECT_EQ(aggregate.submitted, batch.size());
  EXPECT_EQ(aggregate.completed, batch.size());
  EXPECT_EQ(aggregate.in_flight, 0u);
  EXPECT_GT(aggregate.p50_ms, 0.0);
  EXPECT_LE(aggregate.p50_ms, aggregate.p99_ms);

  // Aggregate == sum over per-shard snapshots, and every window went to
  // its patient's shard.
  const auto per_shard = fabric.shard_slo_snapshots();
  ASSERT_EQ(per_shard.size(), 4u);
  std::uint64_t shard_total = 0;
  for (const auto& s : per_shard) shard_total += s.slo.completed;
  EXPECT_EQ(shard_total, aggregate.completed);

  const auto urgent_lane = fabric.lane_slo_snapshot(cs::WindowPriority::kUrgent);
  const auto routine_lane = fabric.lane_slo_snapshot(cs::WindowPriority::kRoutine);
  EXPECT_EQ(urgent_lane.completed, urgent);
  EXPECT_EQ(routine_lane.completed, batch.size() - urgent);

  // Per-patient: one entry per patient, sorted, each on exactly one shard.
  const auto per_patient = fabric.patient_slo_snapshots();
  ASSERT_EQ(per_patient.size(), 6u);
  std::uint64_t patient_total = 0;
  for (std::size_t i = 0; i < per_patient.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(per_patient[i - 1].patient_id, per_patient[i].patient_id);
    }
    patient_total += per_patient[i].slo.completed;
  }
  EXPECT_EQ(patient_total, batch.size());
}

TEST(FabricBatch, ReconstructRestoresInputOrderAndMatchesEngine) {
  const auto batch = fleet_batch(5, 0.3);

  ReconstructionEngine serial(fast_engine(0));
  const auto reference = serial.reconstruct(batch);

  FabricConfig cfg;
  cfg.shards = 3;
  cfg.engine = fast_engine(2);
  ReconstructionFabric fabric(cfg);
  const auto result = fabric.reconstruct(batch);

  ASSERT_EQ(result.windows.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(result.windows[i].patient_id, batch[i].patient_id);
    EXPECT_EQ(result.windows[i].window_index, batch[i].window_index);
    EXPECT_TRUE(bit_identical(result.windows[i].signal, reference.windows[i].signal))
        << "window " << i;
  }
  ASSERT_EQ(result.patients.size(), reference.patients.size());
  for (std::size_t p = 0; p < result.patients.size(); ++p) {
    EXPECT_EQ(result.patients[p].patient_id, reference.patients[p].patient_id);
    EXPECT_EQ(result.patients[p].windows, reference.patients[p].windows);
    EXPECT_DOUBLE_EQ(result.patients[p].mean_snr_db, reference.patients[p].mean_snr_db);
  }
}

TEST(FabricBackpressure, TrySubmitBouncesOnlyTheOwningShard) {
  FabricConfig cfg;
  cfg.shards = 2;
  cfg.engine = fast_engine(0);
  cfg.engine.queue_capacity = 1;
  ReconstructionFabric fabric(cfg);

  const auto batch = fleet_batch(8, 0.0);
  // Find two patients on different shards.
  std::uint32_t on_zero = 0, on_one = 0;
  bool found_zero = false, found_one = false;
  for (const auto& window : batch) {
    (fabric.shard_of(window.patient_id) == 0 ? found_zero : found_one) = true;
    (fabric.shard_of(window.patient_id) == 0 ? on_zero : on_one) = window.patient_id;
  }
  ASSERT_TRUE(found_zero && found_one) << "8 patients must span both shards";

  const auto window_for = [&](std::uint32_t patient) {
    for (const auto& w : batch) {
      if (w.patient_id == patient) return w;
    }
    return batch.front();
  };

  CompressedWindow a = window_for(on_zero);
  CompressedWindow b = window_for(on_zero);
  CompressedWindow c = window_for(on_one);
  ASSERT_TRUE(fabric.try_submit(std::move(a)).has_value());
  EXPECT_FALSE(fabric.try_submit(std::move(b)).has_value())
      << "owning shard full: must bounce even though the other shard is idle";
  EXPECT_TRUE(fabric.try_submit(std::move(c)).has_value())
      << "the other shard's admission gate is independent";
  EXPECT_EQ(fabric.drain().size(), 2u);
  EXPECT_EQ(fabric.slo_snapshot().rejected, 1u);
}

// Crash failover over either shard link: only the dead shard's patients
// re-home, the survivors' results stay bit-identical, and every window
// ever acknowledged is accounted exactly once — the dead shard's
// unretrieved backlog as `lost`.
TEST(FabricFailover, FailShardRehomesOnlyDeadPatientsAndAccountsLoss) {
  const auto batch = fleet_batch(9, 0.25);
  // Serial single-engine reference for the whole fleet: the survivors'
  // results must match it bit-for-bit after the crash.
  ReconstructionEngine serial(fast_engine(0));
  const auto reference = by_identity(std::move(serial.reconstruct(batch).windows));
  ASSERT_EQ(reference.size(), batch.size());
  constexpr std::size_t kDead = 1;
  const HashRing ring_before(3, kVnodesPerShard);
  const HashRing survivors({0, 2}, kVnodesPerShard);
  std::uint64_t lost_expected = 0;
  std::set<std::uint32_t> dead_patients;
  std::set<WindowKey> lost_keys;
  for (const auto& window : batch) {
    if (ring_before.owner(window.patient_id) != kDead) continue;
    ++lost_expected;
    dead_patients.insert(window.patient_id);
    lost_keys.insert({window.patient_id, window.window_index});
  }
  ASSERT_GT(lost_expected, 0u) << "9 patients must put traffic on shard 1";
  ASSERT_LT(lost_expected, batch.size());

  for (const LinkKind kind : {LinkKind::kEngine, LinkKind::kSocket}) {
    SCOPED_TRACE(link_name(kind));
    LinkFactory shards(kind, fast_engine(0));
    Coordinator coord;
    shards.open(coord, 3);
    const auto submit_all = [&] {
      for (const auto& window : batch) {
        CompressedWindow copy = window;
        ASSERT_TRUE(coord.submit(copy, /*blocking=*/true).has_value());
      }
    };
    // Phase 1: a full round trip, so the shard about to die holds
    // retrieved history.  Phase 2: the same traffic, nothing polled —
    // everything routed to shard 1 dies with it.
    submit_all();
    ASSERT_EQ(coord.drain().size(), batch.size());
    submit_all();

    FailoverReport report;
    ASSERT_TRUE(coord.fail_shard(kDead, &report));
    EXPECT_EQ(report.epoch, 1u);
    EXPECT_EQ(report.failed_shard, kDead);
    EXPECT_EQ(report.live_shards, 2u);
    EXPECT_EQ(report.moved_patients, dead_patients.size());
    EXPECT_EQ(report.lost_windows, lost_expected);
    EXPECT_EQ(coord.epoch(), 1u);
    EXPECT_EQ(coord.live_shard_count(), 2u);
    EXPECT_EQ(coord.shard_count(), 3u) << "the dead slot stays a hole (ticket identity)";
    EXPECT_EQ(coord.link(kDead), nullptr);
    EXPECT_FALSE(coord.fail_shard(kDead)) << "a hole cannot fail twice";

    // Subset routing: exactly the dead shard's patients re-home — matching
    // an independently built survivors ring — and every other patient
    // stays where it was.
    for (const auto& window : batch) {
      const std::size_t now = coord.owner(window.patient_id);
      EXPECT_NE(now, kDead);
      EXPECT_EQ(now, survivors.owner(window.patient_id));
      if (dead_patients.count(window.patient_id) == 0) {
        EXPECT_EQ(now, ring_before.owner(window.patient_id))
            << "patient " << window.patient_id << " must not move in a failover";
      }
    }

    // The survivors' backlog is intact and bit-identical to the serial
    // reference; the dead shard's windows are gone — exactly the lost set.
    const auto keyed = by_identity(coord.drain());
    ASSERT_EQ(keyed.size(), batch.size() - lost_expected);
    for (const auto& [key, expected] : reference) {
      const auto found = keyed.find(key);
      if (lost_keys.count(key) != 0) {
        EXPECT_EQ(found, keyed.end()) << "lost window must not reappear";
        continue;
      }
      ASSERT_NE(found, keyed.end());
      EXPECT_TRUE(bit_identical(found->second.signal, expected.signal))
          << "patient " << key.first << " window " << key.second << " differs after failover";
      EXPECT_EQ(found->second.iterations, expected.iterations);
      EXPECT_EQ(found->second.snr_db, expected.snr_db);
    }

    // Crash-proof conservation: every window ever admitted is accounted
    // exactly once, with the dead shard's unretrieved backlog in `lost`.
    const ShardCounters books = coord.aggregate();
    EXPECT_EQ(books.submitted, 2 * batch.size());
    EXPECT_EQ(books.lost, lost_expected);
    EXPECT_EQ(books.completed, 2 * batch.size() - lost_expected);
    EXPECT_EQ(books.submitted,
              books.completed + books.shed_routine + books.shed_urgent + books.lost);

    // The fleet keeps serving: a re-homed patient's window submits under
    // the failover epoch onto a survivor and solves bit-identically.
    CompressedWindow rehomed = *std::find_if(batch.begin(), batch.end(), [&](const auto& w) {
      return w.patient_id == *dead_patients.begin();
    });
    const auto ticket = coord.submit(rehomed, /*blocking=*/true);
    ASSERT_TRUE(ticket.has_value());
    EXPECT_EQ(Coordinator::ticket_epoch(*ticket), 1u);
    EXPECT_NE(Coordinator::ticket_shard(*ticket), kDead);
    const auto after = coord.drain();
    ASSERT_EQ(after.size(), 1u);
    const auto expected = reference.find({after[0].patient_id, after[0].window_index});
    ASSERT_NE(expected, reference.end());
    EXPECT_TRUE(bit_identical(after[0].signal, expected->second.signal));
  }
}

TEST(FabricFailover, ResizeReprovisionsTheCrashHole) {
  FabricConfig cfg;
  cfg.shards = 3;
  cfg.engine = fast_engine(0);
  ReconstructionFabric fabric(cfg);
  const auto batch = fleet_batch(9, 0.25);
  const auto submit_all = [&] {
    for (const auto& window : batch) {
      CompressedWindow copy = window;
      fabric.submit(std::move(copy));
    }
  };

  // A round trip first, so the shard about to die holds retrieved history;
  // then traffic nobody polls, whose shard-1 share dies with it.
  submit_all();
  ASSERT_EQ(fabric.drain().size(), batch.size());
  submit_all();
  std::uint64_t lost_expected = 0;
  for (const auto& window : batch) lost_expected += fabric.shard_of(window.patient_id) == 1;
  ASSERT_GT(lost_expected, 0u);
  fabric.fail_shard(1);
  ASSERT_EQ(fabric.live_shard_count(), 2u);
  EXPECT_THROW(fabric.shard(1), std::out_of_range);
  EXPECT_THROW(fabric.fail_shard(1), std::out_of_range) << "a hole cannot fail twice";

  // Per-shard views skip the hole.  Lane views cover survivors only (a
  // dead shard's lane split is unknowable), so the lanes miss exactly the
  // dead shard's retrieved first-round history.
  const auto per_shard = fabric.shard_slo_snapshots();
  ASSERT_EQ(per_shard.size(), 2u);
  EXPECT_EQ(per_shard[0].shard, 0u);
  EXPECT_EQ(per_shard[1].shard, 2u);
  ASSERT_EQ(fabric.drain().size(), batch.size() - lost_expected);
  const auto crashed = fabric.slo_snapshot();
  EXPECT_EQ(crashed.lost, lost_expected);
  EXPECT_EQ(fabric.lane_slo_snapshot(cs::WindowPriority::kUrgent).completed +
                fabric.lane_slo_snapshot(cs::WindowPriority::kRoutine).completed,
            crashed.completed - lost_expected);

  // resize() is the recovery path: the hole gets a fresh engine and the
  // full ring comes back, so routing matches a plain 3-shard fabric again.
  const auto report = fabric.resize(3);
  EXPECT_EQ(report.epoch, 2u);
  EXPECT_EQ(report.shards_before, 3u);
  EXPECT_EQ(report.shards_after, 3u);
  EXPECT_EQ(fabric.live_shard_count(), 3u);
  EXPECT_NO_THROW(fabric.shard(1));
  const HashRing ring3(3, kVnodesPerShard);
  for (const auto& window : batch) {
    EXPECT_EQ(fabric.shard_of(window.patient_id), ring3.owner(window.patient_id));
  }

  // The re-provisioned shard serves, and the crash's losses stay on the
  // books: conservation holds across fail + resize + another round trip.
  submit_all();
  EXPECT_EQ(fabric.drain().size(), batch.size());
  const auto agg = fabric.slo_snapshot();
  EXPECT_EQ(agg.submitted, 3 * batch.size());
  EXPECT_EQ(agg.lost, lost_expected);
  EXPECT_EQ(agg.submitted, agg.completed + agg.shed_routine + agg.shed_urgent + agg.lost +
                               agg.in_flight);
}

TEST(FabricFailover, LastSurvivorCannotFailAndKeepsServing) {
  FabricConfig cfg;
  cfg.shards = 2;
  cfg.engine = fast_engine(0);
  ReconstructionFabric fabric(cfg);

  EXPECT_THROW(fabric.fail_shard(5), std::out_of_range);
  fabric.fail_shard(0);
  EXPECT_THROW(fabric.fail_shard(0), std::out_of_range);
  EXPECT_THROW(fabric.fail_shard(1), std::invalid_argument)
      << "the last survivor must keep the fleet alive";
  EXPECT_EQ(fabric.live_shard_count(), 1u);

  const auto batch = fleet_batch(3, 0.0);
  for (const auto& window : batch) {
    CompressedWindow copy = window;
    const std::uint64_t ticket = fabric.submit(std::move(copy));
    EXPECT_EQ(Coordinator::ticket_shard(ticket), 1u);
  }
  EXPECT_EQ(fabric.drain().size(), batch.size());
  EXPECT_EQ(fabric.slo_snapshot().lost, 0u) << "an empty shard dies with nothing to lose";
}

}  // namespace
}  // namespace wbsn::host
