// RoutingClient <-> ShardServer integration over real loopback sockets
// (servers run in-process on their own threads; the fork/exec variant
// lives in multiprocess_reshard_test.cpp).  Verifies the fabric's
// guarantees survive the wire: bit-identical reconstructions vs the
// serial in-process reference, composite-ticket round trips, SLO history
// migration across a live reshard, counter conservation across retired
// shards, the POLL_MANY long-poll (park, release by completion or by the
// next frame), the gated progress hook (no wake while no verb waits, none
// lost while one does), windows solved on the shard's own event loop
// (cheap or lone ones, urgent first, no stranding, no self-wake), the
// results that ride in a SUBMIT_BATCH_ACK (no POLL_MANY for them, each
// delivered once across a reshard, a failover or a reconnect), and the
// protocol-level rejection paths (unknown version, talking before HELLO,
// retired frame types, hostile window shapes, malformed SNAPSHOT_REQUESTs).

#include "net/routing_client.hpp"

#include <gtest/gtest.h>
#include <poll.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cs/pipeline.hpp"
#include "host/coordinator.hpp"
#include "host/payload_pool.hpp"
#include "net/crc32c.hpp"
#include "net/shard_server.hpp"
#include "net/socket.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace wbsn::net {
namespace {

using host::CompressedWindow;
using host::EngineConfig;
using host::ReconstructionEngine;
using host::WindowResult;
using WindowKey = std::pair<std::uint32_t, std::uint32_t>;

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

EngineConfig fast_engine(int threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.fista.max_iterations = 25;
  cfg.fista.debias_iterations = 5;
  return cfg;
}

std::vector<CompressedWindow> fleet_traffic(int patients, int beats_per_patient) {
  std::vector<CompressedWindow> traffic;
  for (int p = 0; p < patients; ++p) {
    sig::SynthConfig synth;
    synth.num_leads = 1;
    synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats_per_patient}};
    sig::Rng rng(0x4E7A11ULL + static_cast<std::uint64_t>(p));
    const auto record = synthesize_ecg(synth, rng);

    host::RecordCompressionConfig compression;
    compression.window_samples = 128;
    compression.cr_percent = 50.0;
    auto windows = host::compress_record(record, static_cast<std::uint32_t>(p), compression);
    traffic.insert(traffic.end(), std::make_move_iterator(windows.begin()),
                   std::make_move_iterator(windows.end()));
  }
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    if (i % 3 == 0) traffic[i].priority = cs::WindowPriority::kUrgent;
  }
  return traffic;
}

/// One in-process shard: a ShardServer running its event loop on a thread.
struct LocalShard {
  std::unique_ptr<ShardServer> server;
  std::thread loop;

  explicit LocalShard(ShardServerConfig cfg) {
    server = std::make_unique<ShardServer>(std::move(cfg));
    EXPECT_TRUE(server->start());
    loop = std::thread([s = server.get()] { s->run(); });
  }

  explicit LocalShard(int threads, double hint_cr = 0.0)
      : LocalShard([&] {
          ShardServerConfig cfg;
          cfg.engine = fast_engine(threads);
          // The node path emits exact fixed-point multiples; advertising the
          // scale exercises the compact coding end to end.
          cfg.wire.fixed_scale = cs::measurement_scale_mv(sig::AdcConfig{});
          // Tests that opt into CR hints want determinism, not a race with
          // the backlog: advertise unconditionally.
          cfg.hint_cr_percent = hint_cr;
          cfg.hint_backlog_deadlines = 0.0;
          return cfg;
        }()) {}

  ~LocalShard() { kill(); }

  /// Stops the server loop and joins it — the in-process stand-in for a
  /// shard crash (the engine and its backlog are simply gone to the
  /// client; only the listening port stops answering).
  void kill() {
    server->stop();
    if (loop.joinable()) loop.join();
  }

  ShardEndpoint endpoint() const { return {"127.0.0.1", server->port()}; }
};

RoutingClientConfig client_config() {
  RoutingClientConfig cfg;
  cfg.wire.fixed_scale = cs::measurement_scale_mv(sig::AdcConfig{});
  return cfg;
}

std::map<WindowKey, WindowResult> serial_reference(
    const std::vector<CompressedWindow>& traffic) {
  std::map<WindowKey, WindowResult> reference;
  ReconstructionEngine serial(fast_engine(0));
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    serial.submit(std::move(copy));
  }
  for (auto& result : serial.drain()) {
    reference.emplace(WindowKey{result.patient_id, result.window_index}, std::move(result));
  }
  return reference;
}

TEST(RoutingClient, RoundTripMatchesSerialReferenceBitForBit) {
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/3);
  const auto reference = serial_reference(traffic);

  LocalShard a(2), b(2);
  RoutingClient client(client_config());
  ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));

  std::set<std::uint64_t> submit_tickets;
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    const auto ticket = client.submit(std::move(copy));
    ASSERT_TRUE(ticket.has_value());
    EXPECT_TRUE(submit_tickets.insert(*ticket).second) << "tickets must be unique";
    // Composite form: epoch 0, the owner shard of the patient.
    EXPECT_EQ(host::Coordinator::ticket_epoch(*ticket), 0u);
    EXPECT_EQ(host::Coordinator::ticket_shard(*ticket),
              client.owner(window.patient_id));
  }

  auto results = client.drain();
  ASSERT_EQ(results.size(), traffic.size());
  std::set<std::uint64_t> result_tickets;
  for (const auto& result : results) {
    result_tickets.insert(result.ticket);
    const auto ref = reference.find({result.patient_id, result.window_index});
    ASSERT_NE(ref, reference.end());
    EXPECT_TRUE(bit_identical(result.signal, ref->second.signal))
        << "patient " << result.patient_id << " window " << result.window_index
        << " diverged across the wire";
    EXPECT_EQ(result.iterations, ref->second.iterations);
    EXPECT_EQ(result.snr_db, ref->second.snr_db);
  }
  EXPECT_EQ(result_tickets, submit_tickets)
      << "every result must carry the composite ticket its submit returned";

  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.submitted, traffic.size());
  EXPECT_EQ(agg.completed, traffic.size());
  EXPECT_EQ(agg.retrieved, traffic.size());
  EXPECT_EQ(agg.unsolved, 0u);
  EXPECT_EQ(agg.ready, 0u);
  client.shutdown(/*send_bye=*/false);
}

// set_topology keys shards by endpoint: a survivor keeps its connection
// wherever its index lands.  Results, conservation and per-patient books
// across index shifts are covered over both links by
// ReshardChaos.KeptShardAtAnotherIndexConservesEverything.
TEST(RoutingClient, LiveGrowAndShrinkConserveEverything) {
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/3);
  LocalShard a(1), b(1), c(1);
  RoutingClient client(client_config());
  ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));

  const std::size_t third = traffic.size() / 3;
  std::size_t i = 0;
  for (; i < third; ++i) {
    CompressedWindow copy = traffic[i];
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
  }

  // Live grow 2 -> 3 with traffic in flight.
  ASSERT_TRUE(client.set_topology({a.endpoint(), b.endpoint(), c.endpoint()}));
  EXPECT_EQ(client.epoch(), 1u);
  EXPECT_EQ(client.shard_count(), 3u);
  for (; i < 2 * third; ++i) {
    CompressedWindow copy = traffic[i];
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
  }

  // Live shrink 3 -> 1: shards a and c retire, and b moves to index 0.
  ASSERT_TRUE(client.set_topology({b.endpoint()}));
  EXPECT_EQ(client.epoch(), 2u);
  EXPECT_EQ(client.shard_count(), 1u);
  client.shutdown(/*send_bye=*/false);
}

// Two reshards that move surviving endpoints to other indices.  Every
// patient's history surviving them is asserted over both links by
// ReshardChaos.KeptShardAtAnotherIndexConservesEverything.
TEST(RoutingClient, SloHistoryFollowsThePatientAcrossShards) {
  const auto traffic = fleet_traffic(/*patients=*/4, /*beats_per_patient=*/3);
  LocalShard a(1), b(1), c(1);
  RoutingClient client(client_config());
  ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));

  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
  }
  (void)client.drain();

  ASSERT_TRUE(client.set_topology({b.endpoint(), c.endpoint(), a.endpoint()}));
  ASSERT_TRUE(client.set_topology({c.endpoint(), a.endpoint()}));
  client.shutdown(/*send_bye=*/false);
}

/// Pipelined submit path shared by the tests below: every window goes
/// through submit_pipelined, flush_submits() resolves the tickets, drain()
/// retrieves everything; returns the flush tickets in submission order.
std::vector<std::uint64_t> run_pipelined(RoutingClient& client,
                                         const std::vector<CompressedWindow>& traffic,
                                         std::map<WindowKey, WindowResult>& results) {
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    EXPECT_TRUE(client.submit_pipelined(std::move(copy)));
  }
  const auto tickets = client.flush_submits();
  EXPECT_EQ(tickets.size(), traffic.size());
  std::vector<std::uint64_t> resolved;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_TRUE(tickets[i].has_value()) << "window " << i << " lost its ticket";
    if (tickets[i].has_value()) resolved.push_back(*tickets[i]);
  }
  for (auto&& r : client.drain()) {
    const WindowKey key{r.patient_id, r.window_index};
    EXPECT_TRUE(results.emplace(key, std::move(r)).second) << "duplicate result";
  }
  return resolved;
}

void expect_matches_reference(const std::map<WindowKey, WindowResult>& results,
                              const std::map<WindowKey, WindowResult>& reference) {
  ASSERT_EQ(results.size(), reference.size());
  for (const auto& [key, expected] : reference) {
    const auto found = results.find(key);
    ASSERT_NE(found, results.end());
    EXPECT_TRUE(bit_identical(found->second.signal, expected.signal))
        << "patient " << key.first << " window " << key.second
        << " diverged under pipelining";
    EXPECT_EQ(found->second.iterations, expected.iterations);
  }
}

TEST(RoutingClient, PipelinedSubmitsMatchSerialReferenceBitForBit) {
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/3);
  const auto reference = serial_reference(traffic);

  // Depth 0 acknowledges every sealed frame before staging the next one;
  // it must be the same submit path, not a special case.
  for (const std::size_t depth : {std::size_t{2}, std::size_t{0}}) {
    SCOPED_TRACE("pipeline_depth " + std::to_string(depth));
    LocalShard a(2), b(2);
    auto cfg = client_config();
    cfg.pipeline_depth = depth;
    cfg.submit_batch_windows = 4;
    RoutingClient client(cfg);
    ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));

    std::map<WindowKey, WindowResult> results;
    const auto tickets = run_pipelined(client, traffic, results);
    expect_matches_reference(results, reference);

    // The deferred tickets carry the same composite form a blocking submit
    // returns, stay unique, and every result echoes one of them.
    ASSERT_EQ(tickets.size(), traffic.size());
    std::set<std::uint64_t> unique(tickets.begin(), tickets.end());
    EXPECT_EQ(unique.size(), traffic.size()) << "tickets must be unique";
    for (std::size_t i = 0; i < traffic.size(); ++i) {
      EXPECT_EQ(host::Coordinator::ticket_epoch(tickets[i]), 0u);
      EXPECT_EQ(host::Coordinator::ticket_shard(tickets[i]),
                client.owner(traffic[i].patient_id))
          << "window " << i;
    }
    std::set<std::uint64_t> result_tickets;
    for (const auto& [key, result] : results) result_tickets.insert(result.ticket);
    EXPECT_EQ(result_tickets, unique);

    const auto agg = client.aggregate_snapshot();
    EXPECT_EQ(agg.submitted, traffic.size());
    EXPECT_EQ(agg.completed, traffic.size());
    EXPECT_EQ(agg.retrieved, traffic.size());
    EXPECT_EQ(agg.rejected, 0u);
    EXPECT_EQ(agg.shed_routine + agg.shed_urgent, 0u);
    client.shutdown(/*send_bye=*/false);
  }
}

TEST(CrHints, AdvisoryFollowsOwnerShardAndReshardInvalidates) {
  LocalShard hinted(1, /*hint_cr=*/70.0);
  LocalShard plain(1);
  RoutingClient client(client_config());
  ASSERT_TRUE(client.connect({hinted.endpoint()}));

  // No sweep yet: the client refuses to guess.
  EXPECT_FALSE(client.cr_hint(3).has_value());

  ASSERT_TRUE(client.refresh_cr_hints());
  const auto hint = client.cr_hint(3);
  ASSERT_TRUE(hint.has_value());
  EXPECT_DOUBLE_EQ(*hint, 70.0);

  // Reshard: a new routing epoch invalidates the cached sweep outright —
  // a stale hint routed to the wrong shard is worse than no hint.
  ASSERT_TRUE(client.set_topology({hinted.endpoint(), plain.endpoint()}));
  EXPECT_FALSE(client.cr_hint(3).has_value());

  // The next sweep is per-owner: patients on the hinted shard see the
  // advisory, patients on the quiet shard see nothing.
  ASSERT_TRUE(client.refresh_cr_hints());
  for (std::uint32_t patient = 0; patient < 16; ++patient) {
    const auto per_patient = client.cr_hint(patient);
    if (client.owner(patient) == 0) {
      ASSERT_TRUE(per_patient.has_value()) << "patient " << patient;
      EXPECT_DOUBLE_EQ(*per_patient, 70.0);
    } else {
      EXPECT_FALSE(per_patient.has_value()) << "patient " << patient;
    }
  }
  client.shutdown(/*send_bye=*/false);
}

TEST(CrHints, PressureGateOpensUnderBacklogAndClosesAfterDrain) {
  // The production configuration: advisory only while the priced backlog
  // overshoots the deadline budget.  A serial (threads = 0) server engine
  // holds submitted windows queued until POLL, so the test controls the
  // backlog exactly; the pinned 10 ms estimate against a 10 ms deadline
  // means three queued windows price at 30 ms — well past the budget.
  ShardServerConfig cfg;
  cfg.engine = fast_engine(0);
  cfg.engine.slo.deadline_ms = 10.0;
  cfg.engine.shed_solve_estimate_ms = 10.0;
  cfg.wire.fixed_scale = cs::measurement_scale_mv(sig::AdcConfig{});
  cfg.hint_cr_percent = 70.0;
  cfg.hint_backlog_deadlines = 1.0;
  LocalShard shard(std::move(cfg));
  RoutingClient client(client_config());
  ASSERT_TRUE(client.connect({shard.endpoint()}));

  // Idle shard: the sweep answers, but with no advisory.
  ASSERT_TRUE(client.refresh_cr_hints());
  EXPECT_FALSE(client.cr_hint(0).has_value());

  auto traffic = fleet_traffic(/*patients=*/1, /*beats_per_patient=*/2);
  ASSERT_GE(traffic.size(), 3u);
  traffic.resize(3);
  for (auto& window : traffic) {
    ASSERT_TRUE(client.submit(std::move(window)).has_value());
  }

  // Backlog priced past the budget: the gate opens, and the shard-wide
  // advisory covers the patient with queued work and every other one.
  ASSERT_TRUE(client.refresh_cr_hints());
  const auto pressured = client.cr_hint(0);
  ASSERT_TRUE(pressured.has_value());
  EXPECT_DOUBLE_EQ(*pressured, 70.0);
  const auto advisory_only = client.cr_hint(999);  // No queued windows.
  ASSERT_TRUE(advisory_only.has_value()) << "shard-wide advisory covers every patient";
  EXPECT_DOUBLE_EQ(*advisory_only, 70.0);

  // Draining the backlog closes the gate again.
  EXPECT_EQ(client.drain().size(), 3u);
  ASSERT_TRUE(client.refresh_cr_hints());
  EXPECT_FALSE(client.cr_hint(0).has_value());
  client.shutdown(/*send_bye=*/false);
}

// --- Crash failover and connection-loss accounting ---------------------------

TEST(Backoff, ScheduleIsCappedJitteredAndDeterministic) {
  // Degenerate inputs never sleep.
  EXPECT_EQ(RoutingClient::backoff_delay_ms(0, 10, 2000, 1), 0);
  EXPECT_EQ(RoutingClient::backoff_delay_ms(-3, 10, 2000, 1), 0);
  EXPECT_EQ(RoutingClient::backoff_delay_ms(3, 0, 2000, 1), 0);

  const std::uint64_t seed = 0xABCD;
  for (int attempt = 1; attempt <= 40; ++attempt) {
    const int a = RoutingClient::backoff_delay_ms(attempt, 10, 2000, seed);
    // Deterministic: the same (seed, attempt) replays the same delay.
    EXPECT_EQ(a, RoutingClient::backoff_delay_ms(attempt, 10, 2000, seed));
    // Envelope: base·2^(k-1) clamped to the cap, plus at most +25% jitter.
    const std::int64_t nominal =
        std::min<std::int64_t>(2000, std::int64_t{10} << std::min(attempt - 1, 40));
    EXPECT_GE(a, nominal) << "attempt " << attempt;
    EXPECT_LE(a, nominal + nominal / 4) << "attempt " << attempt;
  }

  // The regression this schedule fixes: attempt counts whose uncapped
  // doubling overflowed int now saturate at the cap (+ jitter) instead.
  for (int attempt : {31, 32, 63, 64, 1000, std::numeric_limits<int>::max()}) {
    const int d = RoutingClient::backoff_delay_ms(attempt, 10, 2000, seed);
    EXPECT_GE(d, 2000) << "attempt " << attempt;
    EXPECT_LE(d, 2500) << "attempt " << attempt;
  }

  // The jitter actually varies with the seed (no thundering herd).
  bool differs = false;
  for (std::uint64_t s = 0; s < 32 && !differs; ++s) {
    differs = RoutingClient::backoff_delay_ms(8, 10, 2000, s) !=
              RoutingClient::backoff_delay_ms(8, 10, 2000, s + 1);
  }
  EXPECT_TRUE(differs);

  // A cap below the base degenerates to the base, never to zero.
  EXPECT_GE(RoutingClient::backoff_delay_ms(5, 100, 10, 7), 100);
  EXPECT_LE(RoutingClient::backoff_delay_ms(5, 100, 10, 7), 125);
}

TEST(Failover, MidStreamDisconnectResolvesTicketsOnceAndNeverDoubleSubmits) {
  // Scripted teardown at an exact frame boundary: frames 0-1 are the two
  // acknowledged SUBMIT_BATCHes of the first flush (a fully synced
  // boundary, so nothing is ambiguously on the wire), frame 2 is the next
  // batch — it dies before reaching the socket.  Its two windows must
  // resolve to nullopt exactly once (the no-resubmit rule), while the
  // four delivered windows are solved, retrieved, and never submitted
  // twice across the reconnect.
  auto traffic = fleet_traffic(/*patients=*/2, /*beats_per_patient=*/3);
  ASSERT_GE(traffic.size(), 8u);

  LocalShard shard(1);
  auto cfg = client_config();
  cfg.pipeline_depth = 2;
  cfg.submit_batch_windows = 2;
  cfg.payload_pool = std::make_shared<host::PayloadPool>();
  cfg.fault_inject = [](std::size_t, std::uint64_t frame) { return frame == 2; };
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({shard.endpoint()}));

  // First flush: two batches, fully acknowledged.
  for (std::size_t i = 0; i < 4; ++i) {
    CompressedWindow copy = traffic[i];
    EXPECT_TRUE(client.submit_pipelined(std::move(copy)));
  }
  const auto acked = client.flush_submits();
  ASSERT_EQ(acked.size(), 4u);
  for (std::size_t i = 0; i < acked.size(); ++i) {
    EXPECT_TRUE(acked[i].has_value()) << "window " << i;
  }

  // Second round: the sealed batch dies at the scripted frame boundary.
  for (std::size_t i = 4; i < 6; ++i) {
    CompressedWindow copy = traffic[i];
    (void)client.submit_pipelined(std::move(copy));
  }
  const auto tickets = client.flush_submits();
  ASSERT_EQ(tickets.size(), 2u);
  EXPECT_FALSE(tickets[0].has_value()) << "died with the connection";
  EXPECT_FALSE(tickets[1].has_value()) << "died with the connection";
  // Exactly once: a second flush has nothing left to resolve.
  EXPECT_TRUE(client.flush_submits().empty());

  // The next verb reconnects; the four delivered windows surface, each
  // exactly once, and the shard's own counters prove no double-submit.
  const auto results = client.drain();
  EXPECT_EQ(results.size(), 4u);
  std::set<WindowKey> keys;
  for (const auto& r : results) {
    EXPECT_TRUE(keys.insert({r.patient_id, r.window_index}).second)
        << "duplicate result after reconnect";
  }
  auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.submitted, 4u) << "a resubmit after reconnect would double-count";
  EXPECT_EQ(agg.completed, 4u);
  EXPECT_EQ(agg.retrieved, 4u);
  EXPECT_EQ(agg.lost, 0u) << "the shard never died; nothing is lost";

  // Post-reconnect submits work and keep counting from four.
  for (std::size_t i = 6; i < 8; ++i) {
    CompressedWindow copy = traffic[i];
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
  }
  EXPECT_EQ(client.drain().size(), 2u);
  agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.submitted, 6u);

  // No payload leak: every window handed to the client returned its
  // buffers to the pool at stage time — including the six whose tickets
  // died — and nothing was dropped on the floor.
  const auto stats = cfg.payload_pool->stats();
  EXPECT_GE(stats.recycled, 8u);
  EXPECT_EQ(stats.dropped, 0u);
  client.shutdown(/*send_bye=*/false);
}

TEST(Failover, FailShardOpensFailoverEpochAndConservesWithLost) {
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/3);

  // Shard 0 is serial: it solves only when polled, so no result rides in
  // its acks and every window it acknowledged is still unsolved when it
  // dies.
  LocalShard a(0), b(1);
  auto cfg = client_config();
  cfg.reconnect_attempts = 0;  // A dead port fails fast, not after backoff.
  cfg.health_probe_timeout_ms = 500;
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));

  // Phase 1: a full round trip — everything submitted, solved, retrieved.
  std::map<WindowKey, WindowResult> results;
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
  }
  for (auto&& r : client.drain()) {
    results.emplace(WindowKey{r.patient_id, r.window_index}, std::move(r));
  }
  ASSERT_EQ(results.size(), traffic.size());

  // Phase 2: resubmit the same signals but crash shard 0 before polling:
  // its acknowledged windows are unrecoverable.
  std::uint64_t acked_to_dead = 0;
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
    acked_to_dead += client.owner(window.patient_id) == 0;
  }
  ASSERT_GT(acked_to_dead, 0u) << "test needs patients on the shard that dies";
  a.kill();

  // Liveness: the survivor answers its probe, the corpse does not.
  EXPECT_TRUE(client.probe_health(1));
  EXPECT_FALSE(client.probe_health(0));
  EXPECT_EQ(client.check_health(), std::vector<std::size_t>{0});
  EXPECT_FALSE(client.shard_failed(0)) << "without auto_failover, detection only";

  // Manual failover: epoch flips, survivors keep their indices, every
  // patient re-homes onto shard 1, and the slot can't fail twice.
  ASSERT_TRUE(client.fail_shard(0));
  EXPECT_EQ(client.epoch(), 1u);
  EXPECT_EQ(client.shard_count(), 2u);
  EXPECT_EQ(client.live_shard_count(), 1u);
  EXPECT_TRUE(client.shard_failed(0));
  EXPECT_FALSE(client.fail_shard(0)) << "already failed";
  EXPECT_FALSE(client.fail_shard(1)) << "the last survivor has nowhere to re-home";
  for (const auto& window : traffic) {
    EXPECT_EQ(client.owner(window.patient_id), 1u);
  }

  // The survivor's phase-2 results still arrive; the client's books
  // stand in for the snapshot the dead shard can never surrender.
  // (Bit-identical survivors and post-failover service are asserted per
  // link, the socket one included, by
  // FabricFailover.FailShardRehomesOnlyDeadPatientsAndAccountsLoss.)
  EXPECT_EQ(client.drain().size(), traffic.size() - acked_to_dead);
  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.lost, acked_to_dead);
  EXPECT_EQ(agg.submitted, 2 * traffic.size());
  EXPECT_EQ(agg.submitted, agg.completed + agg.shed_routine + agg.shed_urgent +
                               agg.rejected + agg.lost)
      << "submitted == completed + shed + rejected + lost must survive a crash";
  client.shutdown(/*send_bye=*/false);
}

TEST(Failover, AutoFailoverReroutesAndKeepsServing) {
  // The full automatic path: a shard dies mid-deployment, the next submit
  // touching it detects the death, fails it over, and lands the in-hand
  // window on the survivor — no manual intervention, counts conserved.
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/2);
  const auto reference = serial_reference(traffic);

  // Shard 0 is serial, so its acks carry no results (see above).
  LocalShard a(0), b(1);
  auto cfg = client_config();
  cfg.auto_failover = true;
  cfg.reconnect_attempts = 0;
  cfg.health_probe_timeout_ms = 500;
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));

  // Load both shards, retrieve nothing, then crash shard 0: everything it
  // acknowledged is lost.
  std::uint64_t acked_to_dead = 0;
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
    if (client.owner(window.patient_id) == 0) ++acked_to_dead;
  }
  ASSERT_GT(acked_to_dead, 0u);
  a.kill();

  // Every submit keeps succeeding: the first one to touch the corpse
  // pays for the detection, fails the shard over, and re-routes.
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    const auto ticket = client.submit(std::move(copy));
    ASSERT_TRUE(ticket.has_value()) << "auto-failover must keep the fleet serving";
    EXPECT_EQ(host::Coordinator::ticket_shard(*ticket), 1u)
        << "post-failover submits land on the survivor";
  }
  EXPECT_TRUE(client.shard_failed(0));
  EXPECT_EQ(client.epoch(), 1u);
  EXPECT_EQ(client.live_shard_count(), 1u);

  // The survivor serves the re-submitted round bit-identically.
  std::size_t matched = 0;
  for (auto&& r : client.drain()) {
    const auto ref = reference.find({r.patient_id, r.window_index});
    ASSERT_NE(ref, reference.end());
    EXPECT_TRUE(bit_identical(r.signal, ref->second.signal));
    ++matched;
  }
  // Round 1's survivor-shard windows + all of round 2.
  EXPECT_EQ(matched, (traffic.size() - acked_to_dead) + traffic.size());

  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.lost, acked_to_dead);
  EXPECT_EQ(agg.submitted, 2 * traffic.size());
  EXPECT_EQ(agg.submitted, agg.completed + agg.shed_routine + agg.shed_urgent +
                               agg.rejected + agg.lost);
  client.shutdown(/*send_bye=*/false);
}

TEST(Failover, CheckHealthAutoFailsDeadShards) {
  // Killing one shard and sweeping with auto_failover fails exactly it.
  LocalShard survivor(1), doomed(1);
  auto cfg = client_config();
  cfg.auto_failover = true;
  cfg.reconnect_attempts = 0;
  cfg.health_probe_timeout_ms = 500;
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({survivor.endpoint(), doomed.endpoint()}));

  // Both alive: both probe healthy.
  EXPECT_TRUE(client.probe_health(0));
  EXPECT_TRUE(client.probe_health(1));
  EXPECT_TRUE(client.check_health().empty());

  doomed.kill();
  const auto dead = client.check_health();
  ASSERT_EQ(dead, std::vector<std::size_t>{1});
  EXPECT_TRUE(client.shard_failed(1));
  EXPECT_FALSE(client.shard_failed(0));
  EXPECT_EQ(client.epoch(), 1u);

  // A failed slot probes false forever — never resurrected in place.
  EXPECT_FALSE(client.probe_health(1));
  client.shutdown(/*send_bye=*/false);
}

/// Reads one complete frame from a raw socket into `acc`/`view`; fails the
/// test when the peer closes first.
void read_one(Fd& fd, std::vector<std::uint8_t>& acc, FrameView& view) {
  std::vector<std::uint8_t> rx(4096);
  acc.clear();
  for (;;) {
    const long n = recv_some(fd.get(), rx.data(), rx.size());
    ASSERT_GT(n, 0) << "server closed the connection";
    acc.insert(acc.end(), rx.begin(), rx.begin() + n);
    if (peek_frame(acc, view) == FrameStatus::kOk) return;
  }
}

/// A raw connection that has completed the HELLO handshake.
Fd negotiated_connection(const LocalShard& shard) {
  Fd fd = tcp_connect("127.0.0.1", shard.server->port(), 2000, 2000);
  EXPECT_TRUE(fd.valid());
  std::vector<std::uint8_t> buf, acc;
  FrameView view;
  encode_hello(buf, HelloPayload{});
  EXPECT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
  read_one(fd, acc, view);
  EXPECT_EQ(view.type, FrameType::kHelloAck);
  return fd;
}

/// Sends SNAPSHOT_REQUEST(`nonce`) on `fd` and reads its SNAPSHOT: the
/// nonce must come back, and the counters land in `counters`.
void expect_snapshot_echo(Fd& fd, std::uint64_t nonce, SnapshotPayload& counters) {
  std::vector<std::uint8_t> buf, acc;
  encode_snapshot_request(buf, nonce);
  ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
  FrameView view;
  read_one(fd, acc, view);
  ASSERT_EQ(view.type, FrameType::kSnapshot);
  std::uint64_t echoed = 0;
  std::uint32_t advisory = 1;
  ASSERT_TRUE(decode_snapshot(view.payload, echoed, counters, advisory));
  EXPECT_EQ(echoed, nonce);
  EXPECT_EQ(advisory, 0u) << "this shard advertises no CR";
}

/// Asserts the next frame on `fd` is ERROR(`code`) and that the server
/// then closes the connection.
void expect_error_then_close(Fd& fd, ErrorCode code) {
  std::vector<std::uint8_t> acc;
  FrameView view;
  read_one(fd, acc, view);
  ASSERT_EQ(view.type, FrameType::kError);
  ErrorPayload error;
  ASSERT_TRUE(decode_error(view.payload, error));
  EXPECT_EQ(error.code, code);
  std::uint8_t byte = 0;
  EXPECT_EQ(recv_some(fd.get(), &byte, 1), 0) << "the server must close after the error";
}

/// Reads the next frame off a raw socket into `frame`/`view`, keeping in
/// `rx` any bytes that arrived past it; fails the test when the peer
/// closes first.
void next_frame(Fd& fd, std::vector<std::uint8_t>& rx, std::vector<std::uint8_t>& frame,
                FrameView& view) {
  std::uint8_t chunk[4096];
  for (;;) {
    FrameView peek;
    if (peek_frame(rx, peek) == FrameStatus::kOk) {
      frame.assign(rx.begin(), rx.begin() + peek.frame_bytes);
      rx.erase(rx.begin(), rx.begin() + peek.frame_bytes);
      ASSERT_EQ(peek_frame(frame, view), FrameStatus::kOk);
      return;
    }
    const long n = recv_some(fd.get(), chunk, sizeof(chunk));
    ASSERT_GT(n, 0) << "server closed the connection";
    rx.insert(rx.end(), chunk, chunk + n);
  }
}

/// Reads the next frame off `fd`, which must be a RESULT_BATCH, into
/// `results`.
void next_result_batch(Fd& fd, std::vector<std::uint8_t>& rx,
                       std::vector<WindowResult>& results) {
  std::vector<std::uint8_t> frame;
  FrameView view;
  next_frame(fd, rx, frame, view);
  ASSERT_EQ(view.type, FrameType::kResultBatch);
  ASSERT_TRUE(decode_result_batch(view.payload, results, nullptr));
}

/// A SUBMIT_BATCH_ACK read off a raw socket: its per-window entries and
/// the results that rode in it.
struct Ack {
  std::vector<SubmitBatchAckEntry> entries;
  std::vector<WindowResult> results;
};

/// Reads the next frame off `fd`, which must be a SUBMIT_BATCH_ACK.
Ack next_ack(Fd& fd, std::vector<std::uint8_t>& rx) {
  std::vector<std::uint8_t> frame;
  FrameView view;
  next_frame(fd, rx, frame, view);
  Ack ack;
  EXPECT_EQ(view.type, FrameType::kSubmitBatchAck);
  EXPECT_TRUE(decode_submit_batch_ack(view.payload, ack.entries, ack.results, nullptr));
  return ack;
}

/// Sends one SUBMIT_BATCH of `windows` on `fd` and reads its ack.
Ack submit_and_ack(Fd& fd, std::vector<std::uint8_t>& rx,
                   const std::vector<CompressedWindow>& windows,
                   std::uint8_t flags = kSubmitFlagBlocking) {
  std::vector<std::uint8_t> buf;
  encode_submit_batch(buf, windows, flags, WireEncodeOptions{});
  EXPECT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
  return next_ack(fd, rx);
}

/// Sends a SNAPSHOT_REQUEST behind the POLL_MANY parked on `fd`: the shard
/// answers the poll first.  Returns what that answer carried.
std::vector<WindowResult> release_parked_poll(Fd& fd, std::vector<std::uint8_t>& rx) {
  std::vector<std::uint8_t> buf, frame;
  encode_snapshot_request(buf, /*nonce=*/1);
  EXPECT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
  std::vector<WindowResult> results;
  next_result_batch(fd, rx, results);
  FrameView view;
  next_frame(fd, rx, frame, view);
  EXPECT_EQ(view.type, FrameType::kSnapshot);
  return results;
}

/// True when any byte arrives on `fd` within `ms` milliseconds.
bool readable_within(const Fd& fd, int ms) {
  pollfd pfd{fd.get(), POLLIN, 0};
  return ::poll(&pfd, 1, ms) > 0;
}

/// Gives a new shard's worker time to start and go to sleep, so that the
/// first window of a test finds the engine idle and the worker's wake is
/// part of what the test measures.
void let_workers_park() { std::this_thread::sleep_for(std::chrono::milliseconds(50)); }

/// The first window of `patient`'s record cut `samples` long (fleet_traffic
/// cuts 128): its solve costs about samples / 128 times as much.
CompressedWindow long_window(std::uint32_t patient, std::size_t samples) {
  sig::SynthConfig synth;
  synth.num_leads = 1;
  synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, 16}};
  sig::Rng rng(0x10C6ULL + patient);
  const auto record = synthesize_ecg(synth, rng);
  host::RecordCompressionConfig compression;
  compression.window_samples = samples;
  compression.cr_percent = 50.0;
  auto windows = host::compress_record(record, patient, compression);
  EXPECT_FALSE(windows.empty());
  CompressedWindow window = std::move(windows.front());
  // Clear of fleet_traffic's indices.
  window.window_index = 1000;
  window.priority = cs::WindowPriority::kRoutine;
  return window;
}

/// A 1-worker shard whose windows are pinned expensive and run a fixed
/// 1000 iterations.  In a frame of a 128-sample window and a 2048-sample
/// long_window(), the loop holds the first (the engine is idle) and the
/// second goes to the worker, which is still solving it long after the ack
/// has left.
ShardServerConfig slow_worker_config() {
  ShardServerConfig cfg;
  cfg.engine = fast_engine(1);
  cfg.engine.fista.max_iterations = 1000;
  cfg.engine.fista.tolerance = 0.0;
  cfg.engine.shed_solve_estimate_ms = 1.0;
  return cfg;
}

/// The patient key of a window or result.
template <typename T>
WindowKey key_of(const T& w) {
  return {w.patient_id, w.window_index};
}

TEST(LongPoll, IdleThreadedShardAnswersOnlyWhenAWindowCompletes) {
  LocalShard shard(slow_worker_config());
  let_workers_park();
  Fd poller = negotiated_connection(shard);
  std::vector<std::uint8_t> buf, rx;
  encode_poll_many(buf, 8);
  ASSERT_TRUE(send_all(poller.get(), buf.data(), buf.size()));
  EXPECT_FALSE(readable_within(poller, 200)) << "an idle shard must hold the poll";

  // Another connection submits a short window, which the loop holds, and
  // a long one, which goes to the worker and completes long after the ack.
  // The ack carries the short one's result; the long one's completion
  // releases the poll.
  Fd submitter = negotiated_connection(shard);
  const CompressedWindow short_window = fleet_traffic(/*patients=*/1, 1).front();
  const CompressedWindow long_one = long_window(short_window.patient_id, 2048);
  std::vector<std::uint8_t> submitter_rx;
  const Ack ack = submit_and_ack(submitter, submitter_rx, {short_window, long_one});
  ASSERT_EQ(ack.entries.size(), 2u);
  ASSERT_EQ(ack.results.size(), 1u) << "the held window, and the long one still solving";
  EXPECT_EQ(key_of(ack.results[0]), key_of(short_window));

  std::vector<WindowResult> results;
  next_result_batch(poller, rx, results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(key_of(results[0]), key_of(long_one));
  EXPECT_TRUE(rx.empty());
  EXPECT_FALSE(readable_within(poller, 100)) << "one POLL_MANY, one RESULT_BATCH";
}

TEST(LongPoll, NextFrameReleasesTheParkedPollBeforeItsOwnReply) {
  // POLL_MANY + a second verb in one write to an idle threaded shard: the
  // poll's (empty) RESULT_BATCH comes strictly before the verb's reply.
  // SUBMIT_BATCH goes last, or its window's result would answer the
  // later polls.
  LocalShard shard(1);
  CompressedWindow window = fleet_traffic(/*patients=*/1, /*beats_per_patient=*/1).front();
  const std::vector<std::pair<std::string, FrameType>> verbs{
      {"SNAPSHOT_REQUEST", FrameType::kSnapshot},
      {"SUBMIT_BATCH", FrameType::kSubmitBatchAck}};
  for (const auto& [name, reply] : verbs) {
    SCOPED_TRACE(name);
    Fd fd = negotiated_connection(shard);
    std::vector<std::uint8_t> buf, rx, frame;
    encode_poll_many(buf, 8);
    if (reply == FrameType::kSnapshot) encode_snapshot_request(buf, /*nonce=*/7);
    if (reply == FrameType::kSubmitBatchAck) {
      encode_submit_batch(buf, {&window, 1}, kSubmitFlagBlocking, WireEncodeOptions{});
    }
    ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
    std::vector<WindowResult> results;
    next_result_batch(fd, rx, results);
    EXPECT_TRUE(results.empty()) << "nothing was ready when the verb arrived";
    FrameView view;
    next_frame(fd, rx, frame, view);
    EXPECT_EQ(view.type, reply);
  }
}

TEST(LongPoll, SerialShardAnswersAtOnce) {
  // threads == 0 solves inside engine.poll(): no completion could ever
  // release a parked poll, so the shard answers immediately, even empty.
  LocalShard shard(0);
  Fd fd = negotiated_connection(shard);
  std::vector<std::uint8_t> buf, rx;
  encode_poll_many(buf, 8);
  ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
  std::vector<WindowResult> results;
  next_result_batch(fd, rx, results);
  EXPECT_TRUE(results.empty());
}

TEST(LongPoll, IdlePollsSendAtMostOnePollManyPerShard) {
  // Frames are counted on the fault hook's clock, so nothing here depends
  // on timing.
  LocalShard a(slow_worker_config()), b(slow_worker_config());
  let_workers_park();
  const std::array<const LocalShard*, 2> shards{&a, &b};
  std::array<std::uint64_t, 2> sent{};
  auto cfg = client_config();
  cfg.fault_inject = [&sent](std::size_t shard, std::uint64_t frame) {
    sent[shard] = frame + 1;
    return false;
  };
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));

  // Everything retrieved: idle polls send nothing at all.
  const auto traffic = fleet_traffic(/*patients=*/4, /*beats_per_patient=*/2);
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
  }
  ASSERT_EQ(client.drain().size(), traffic.size());
  auto before = sent;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(client.poll().has_value());
  EXPECT_EQ(sent, before);

  // One frame per shard of a short window, which the loop holds and whose
  // result rides in the ack, and a long one, which goes to the worker and
  // completes long after it.  Once both are solved, a raw connection takes
  // the long one's result, so the client still waits on both shards, and
  // both are idle.
  std::size_t carried = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto owned = std::find_if(traffic.begin(), traffic.end(), [&](const auto& w) {
      return client.owner(w.patient_id) == s;
    });
    ASSERT_NE(owned, traffic.end());
    const std::uint64_t acked_before = shards[s]->server->ack_results();
    ASSERT_TRUE(client.submit_pipelined(CompressedWindow(*owned)));
    ASSERT_TRUE(client.submit_pipelined(long_window(owned->patient_id, 2048)));
    for (const auto& ticket : client.flush_submits()) ASSERT_TRUE(ticket.has_value());
    const std::uint64_t in_ack = shards[s]->server->ack_results() - acked_before;
    ASSERT_EQ(in_ack, 1u) << "the held window, and the long one still solving";
    carried += in_ack;
    auto& engine = shards[s]->server->engine();
    for (int waited_ms = 0; engine.in_flight() > 0 && waited_ms < 5000; ++waited_ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Fd thief = negotiated_connection(*shards[s]);
    std::vector<std::uint8_t> buf, rx;
    encode_poll_many(buf, 8);
    ASSERT_TRUE(send_all(thief.get(), buf.data(), buf.size()));
    std::vector<WindowResult> results;
    next_result_batch(thief, rx, results);
    ASSERT_EQ(results.size(), 1u);
  }
  before = sent;
  std::size_t returned = 0;
  for (int i = 0; i < 100; ++i) returned += client.poll().has_value();
  EXPECT_EQ(returned, carried) << "the results the acks carried, and no other";
  for (std::size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(sent[s] - before[s], 1u) << "shard " << s << ": one armed POLL_MANY in total";
  }
  client.shutdown(/*send_bye=*/false);
}

// --- The gated progress hook: the shard's loop is woken only while a verb
// waits for engine progress, and every waiting verb still gets its wake.

/// The first `count` windows of a fleet big enough to supply them.
std::vector<CompressedWindow> first_windows(std::size_t count) {
  auto traffic = fleet_traffic(/*patients=*/8, /*beats_per_patient=*/8);
  EXPECT_GE(traffic.size(), count);
  traffic.resize(std::min(count, traffic.size()));
  return traffic;
}

TEST(WakeGate, BlockingSubmitWithNothingParkedWritesNoWake) {
  LocalShard shard(1);
  Fd fd = negotiated_connection(shard);
  std::vector<std::uint8_t> rx;
  const auto windows = first_windows(32);
  const Ack ack = submit_and_ack(fd, rx, windows);
  ASSERT_EQ(ack.entries.size(), windows.size());
  for (const auto& entry : ack.entries) EXPECT_TRUE(entry.accepted);
  // Every window solves with no verb waiting: no completion may wake the
  // loop.  Those solved before the ack rode in it.
  auto& engine = shard.server->engine();
  const std::size_t left = windows.size() - ack.results.size();
  for (int waited_ms = 0; engine.ready_results() < left && waited_ms < 5000; ++waited_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(engine.ready_results(), left);
  EXPECT_EQ(shard.server->wake_writes(), 0u);

  if (left > 0) {
    std::vector<std::uint8_t> buf;
    encode_poll_many(buf, 0);
    ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
    std::vector<WindowResult> results;
    next_result_batch(fd, rx, results);
    EXPECT_EQ(results.size(), left);
  }
  EXPECT_EQ(shard.server->wake_writes(), 0u);
}

TEST(WakeGate, DeferredSubmitIsAckedInFullAndInOrder) {
  // 64 windows against 2 slots: the submit parks, and only slot releases
  // (the hook's wakes) let it admit the rest.  The estimate is pinned
  // expensive, so no window is held as cheap however fast this build
  // solves.  The loop still holds a window that finds no other in flight,
  // but the one admitted behind it goes to the worker, and once the loop
  // has solved its own the submit parks until that worker completes.
  ShardServerConfig cfg;
  cfg.engine = fast_engine(1);
  cfg.engine.queue_capacity = 2;
  cfg.engine.shed_solve_estimate_ms = 1.0;
  LocalShard shard(std::move(cfg));
  Fd fd = negotiated_connection(shard);
  std::vector<std::uint8_t> rx;
  const auto windows = first_windows(64);
  const Ack ack = submit_and_ack(fd, rx, windows);
  ASSERT_EQ(ack.entries.size(), windows.size());
  for (std::size_t i = 0; i < ack.entries.size(); ++i) {
    EXPECT_TRUE(ack.entries[i].accepted) << i;
    if (i > 0) {
      EXPECT_GT(ack.entries[i].local_ticket, ack.entries[i - 1].local_ticket) << i;
    }
  }
  EXPECT_GE(shard.server->wake_writes(), 1u)
      << "only a hook wake admits past the 2 slots; loop solves " << shard.server->loop_solves()
      << ", worker handoffs " << shard.server->worker_handoffs();

  std::set<WindowKey> seen;
  for (const auto& r : ack.results) seen.insert(key_of(r));
  while (seen.size() < windows.size()) {
    std::vector<std::uint8_t> buf;
    encode_poll_many(buf, 0);
    ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
    std::vector<WindowResult> results;
    next_result_batch(fd, rx, results);
    ASSERT_FALSE(results.empty());
    for (const auto& r : results) seen.insert(key_of(r));
  }
  for (const auto& w : windows) EXPECT_TRUE(seen.count(key_of(w)));
}

TEST(WakeGate, DrainPatientWithQueuedWindowsAnswersDrainDone) {
  // The drain rides in the same write as the patient's windows, so it
  // reaches the loop while they are still queued behind one worker.
  ShardServerConfig cfg;
  cfg.engine = fast_engine(1);
  cfg.engine.fista.max_iterations = 200;
  LocalShard shard(std::move(cfg));
  Fd fd = negotiated_connection(shard);
  auto windows = fleet_traffic(/*patients=*/1, /*beats_per_patient=*/24);
  ASSERT_GE(windows.size(), 8u);
  const std::uint32_t patient = windows.front().patient_id;
  std::vector<std::uint8_t> buf, rx, frame;
  encode_submit_batch(buf, windows, kSubmitFlagBlocking, WireEncodeOptions{});
  encode_patient_frame(buf, FrameType::kDrainPatient, patient);
  ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
  const Ack ack = next_ack(fd, rx);
  FrameView view;
  next_frame(fd, rx, frame, view);
  ASSERT_EQ(view.type, FrameType::kDrainDone);
  std::uint32_t echoed = 0;
  ASSERT_TRUE(decode_patient_frame(view.payload, echoed));
  EXPECT_EQ(echoed, patient);
  EXPECT_EQ(shard.server->engine().patient_pending(patient), 0u);
  // Results ready when the ack left rode in it; the rest wait.
  EXPECT_EQ(ack.results.size() + shard.server->engine().ready_results(), windows.size());
}

TEST(WakeGate, ParkedPollIsReleasedByEveryCompletion) {
  // A lost wakeup would leave a round's poll parked for good; the 2-s
  // receive timeout of negotiated_connection turns that into a failure.
  // Each round submits two windows, pinned expensive: the loop solves the
  // first (it finds the engine idle) and a worker the second, whose
  // completion usually lands after the ack has left, while the round's
  // poll is parked.  The pause before each submit varies, so the
  // completions land before, during and after the loop arms the hook.  A
  // completion that beats the ack rides in it, and the poll, with nothing
  // left to wait for, is released by the next frame instead.
  ShardServerConfig cfg;
  cfg.engine = fast_engine(1);
  cfg.engine.shed_solve_estimate_ms = 1.0;
  LocalShard shard(std::move(cfg));
  Fd poller = negotiated_connection(shard);
  Fd submitter = negotiated_connection(shard);
  const auto windows = fleet_traffic(/*patients=*/1, /*beats_per_patient=*/4);
  std::vector<std::uint8_t> poll_rx, submit_rx;
  constexpr int kRounds = 200;
  int released_by_completion = 0;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    std::vector<std::uint8_t> buf;
    encode_poll_many(buf, 8);
    ASSERT_TRUE(send_all(poller.get(), buf.data(), buf.size()));
    std::this_thread::sleep_for(std::chrono::microseconds((round * 37) % 500));
    const std::vector<CompressedWindow> two{windows[round % windows.size()],
                                            windows[(round + 1) % windows.size()]};
    const Ack ack = submit_and_ack(submitter, submit_rx, two);
    ASSERT_EQ(ack.entries.size(), two.size());
    std::size_t received = ack.results.size();
    if (received == two.size()) {
      const auto released = release_parked_poll(poller, poll_rx);
      EXPECT_TRUE(released.empty());
      continue;
    }
    for (;;) {
      std::vector<WindowResult> results;
      next_result_batch(poller, poll_rx, results);
      ASSERT_FALSE(results.empty());
      received += results.size();
      if (received >= two.size()) break;
      buf.clear();
      encode_poll_many(buf, 8);
      ASSERT_TRUE(send_all(poller.get(), buf.data(), buf.size()));
    }
    ASSERT_EQ(received, two.size());
    ++released_by_completion;
  }
  // The hook runs once per completion, so it writes at most that often.
  EXPECT_LE(shard.server->wake_writes(), static_cast<std::uint64_t>(2 * kRounds));
  EXPECT_GT(released_by_completion, 0) << "no round left a completion for the parked poll";
}

// --- Loop solves: a window predicted cheaper than a worker handoff
// (host::kWorkerHandoffUs), or one that reaches an idle engine (no other
// window queued or solving), is solved by the shard's event loop before
// it acknowledges the frame that admitted it, and its result rides in that
// SUBMIT_BATCH_ACK; every other window goes to a worker.  The solve
// estimate is pinned through shed_solve_estimate_ms so the path taken
// does not depend on how fast this build solves.

/// A 1-worker shard whose every window is predicted to cost `estimate_ms`.
ShardServerConfig pinned_config(double estimate_ms, std::size_t queue_capacity = 1024) {
  ShardServerConfig cfg;
  cfg.engine = fast_engine(1);
  cfg.engine.shed_solve_estimate_ms = estimate_ms;
  cfg.engine.queue_capacity = queue_capacity;
  return cfg;
}

constexpr double kCheapMs = 0.002;    // 2 µs: below the handoff cost.
constexpr double kExpensiveMs = 1.0;  // 1 ms: far above it.
static_assert(kCheapMs * 1000.0 < static_cast<double>(host::kWorkerHandoffUs));

/// Polls `fd` until `count` results have arrived (or a poll comes back
/// empty).
std::vector<WindowResult> poll_results(Fd& fd, std::vector<std::uint8_t>& rx, std::size_t count) {
  std::vector<WindowResult> all;
  while (all.size() < count) {
    std::vector<std::uint8_t> buf;
    encode_poll_many(buf, 0);
    EXPECT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
    std::vector<WindowResult> results;
    next_result_batch(fd, rx, results);
    if (results.empty()) break;
    all.insert(all.end(), std::make_move_iterator(results.begin()),
               std::make_move_iterator(results.end()));
  }
  return all;
}

/// The results of `ack`'s `count` windows: those that rode in it, then the
/// rest, polled for.
std::vector<WindowResult> ack_then_poll(Fd& fd, std::vector<std::uint8_t>& rx, Ack ack,
                                        std::size_t count) {
  auto all = std::move(ack.results);
  auto rest = poll_results(fd, rx, count - std::min(count, all.size()));
  all.insert(all.end(), std::make_move_iterator(rest.begin()), std::make_move_iterator(rest.end()));
  return all;
}

void expect_matches_reference(const std::vector<WindowResult>& results,
                              const std::vector<CompressedWindow>& windows) {
  const auto reference = serial_reference(windows);
  ASSERT_EQ(results.size(), windows.size());
  for (const auto& r : results) {
    const auto ref = reference.find(key_of(r));
    ASSERT_NE(ref, reference.end());
    EXPECT_TRUE(bit_identical(r.signal, ref->second.signal)) << r.window_index;
  }
}

TEST(LoopSolve, CheapWindowsSolveOnTheLoopWithNoWorkerWake) {
  LocalShard shard(pinned_config(kCheapMs));
  let_workers_park();
  Fd fd = negotiated_connection(shard);
  std::vector<std::uint8_t> rx;
  const auto windows = first_windows(48);
  // Warm-up: the first batch builds the sensing matrices.
  const std::vector<CompressedWindow> warm(windows.begin(), windows.begin() + 16);
  const Ack warm_ack = submit_and_ack(fd, rx, warm);
  ASSERT_EQ(warm_ack.entries.size(), warm.size());
  EXPECT_EQ(warm_ack.results.size(), warm.size());
  const std::uint64_t solved_before = shard.server->loop_solves();
  EXPECT_EQ(solved_before, warm.size());

  const std::vector<CompressedWindow> rest(windows.begin() + 16, windows.end());
  const Ack ack = submit_and_ack(fd, rx, rest);
  ASSERT_EQ(ack.entries.size(), rest.size());
  for (const auto& entry : ack.entries) EXPECT_TRUE(entry.accepted);
  // Solved before the ack left: the results ride in it.
  EXPECT_EQ(shard.server->engine().ready_results(), 0u);
  EXPECT_EQ(shard.server->loop_solves() - solved_before, rest.size());
  expect_matches_reference(ack.results, rest);
  EXPECT_EQ(shard.server->ack_results(), windows.size());
  EXPECT_EQ(shard.server->poll_answers(), 0u);
  EXPECT_EQ(shard.server->wake_writes(), 0u);
}

TEST(LoopSolve, UnmeasuredShapeGoesToTheWorker) {
  // No pin and no completed solve yet: neither window has a per-shape
  // estimate, so neither is held as cheap.  The first reaches an idle
  // engine and is held; the second finds it in flight and goes to the
  // worker.
  LocalShard shard(1);
  let_workers_park();
  Fd fd = negotiated_connection(shard);
  std::vector<std::uint8_t> rx;
  const auto windows = first_windows(2);
  Ack ack = submit_and_ack(fd, rx, windows);
  ASSERT_EQ(ack.entries.size(), windows.size());
  expect_matches_reference(ack_then_poll(fd, rx, std::move(ack), windows.size()), windows);
  EXPECT_EQ(shard.server->worker_handoffs(), 1u);
  EXPECT_EQ(shard.server->loop_solves(), 1u);
}

TEST(LoopSolve, PinnedExpensiveWindowsGoToTheWorker) {
  // The first window finds no other in flight and is held.  It stays in
  // flight until the loop solves it before the ack, so the other 31 all
  // go to the worker, whether or not it is still awake from its start.
  LocalShard shard(pinned_config(kExpensiveMs));
  Fd fd = negotiated_connection(shard);
  std::vector<std::uint8_t> rx;
  const auto windows = first_windows(32);
  Ack ack = submit_and_ack(fd, rx, windows);
  ASSERT_EQ(ack.entries.size(), windows.size());
  expect_matches_reference(ack_then_poll(fd, rx, std::move(ack), windows.size()), windows);
  EXPECT_EQ(shard.server->worker_handoffs(), windows.size() - 1);
  EXPECT_EQ(shard.server->loop_solves(), 1u);
}

TEST(LoopSolve, LoneExpensiveWindowsSolveOnTheLoopWithNoWake) {
  // One window per frame into an idle engine: the loop solves each before
  // the ack leaves, so no worker is woken, no wake byte is written, and
  // each result rides in its own ack.
  LocalShard shard(pinned_config(kExpensiveMs));
  let_workers_park();
  Fd fd = negotiated_connection(shard);
  std::vector<std::uint8_t> rx;
  const auto windows = first_windows(8);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    SCOPED_TRACE(i);
    const std::vector<CompressedWindow> one{windows[i]};
    const Ack ack = submit_and_ack(fd, rx, one);
    ASSERT_EQ(ack.entries.size(), 1u);
    EXPECT_EQ(shard.server->loop_solves(), i + 1);
    expect_matches_reference(ack.results, one);
  }
  EXPECT_EQ(shard.server->worker_handoffs(), 0u);
  EXPECT_EQ(shard.server->loop_solves() + shard.server->worker_handoffs(), windows.size());
  EXPECT_EQ(shard.server->ack_results(), windows.size());
  EXPECT_EQ(shard.server->poll_answers(), 0u);
  EXPECT_EQ(shard.server->wake_writes(), 0u);
}

TEST(LoopSolve, BurstOfExpensiveWindowsSpreadsToTheWorker) {
  // A frame of 8 expensive windows into an idle engine: the first is
  // held, and it stays in flight until the loop solves it before the ack,
  // so each later window finds another in flight and goes to the worker.
  LocalShard shard(pinned_config(kExpensiveMs));
  let_workers_park();
  Fd fd = negotiated_connection(shard);
  std::vector<std::uint8_t> rx;
  auto windows = first_windows(8);
  for (auto& w : windows) w.priority = cs::WindowPriority::kRoutine;
  Ack ack = submit_and_ack(fd, rx, windows);
  ASSERT_EQ(ack.entries.size(), windows.size());
  expect_matches_reference(ack_then_poll(fd, rx, std::move(ack), windows.size()), windows);
  EXPECT_EQ(shard.server->worker_handoffs(), windows.size() - 1);
  EXPECT_EQ(shard.server->loop_solves(), 1u);
}

TEST(LoopSolve, BlockingSubmitAgainstAFullEngineOfCheapWindowsCompletes) {
  // 64 cheap windows against 2 slots.  No worker is ever woken for them,
  // so no slot release would wake a parked submit: the loop must make its
  // own room by solving what it holds.  A stranded submit trips the 2-s
  // receive timeout of negotiated_connection.
  LocalShard shard(pinned_config(kCheapMs, /*queue_capacity=*/2));
  let_workers_park();
  Fd fd = negotiated_connection(shard);
  std::vector<std::uint8_t> rx;
  const auto windows = first_windows(64);
  const Ack ack = submit_and_ack(fd, rx, windows);
  ASSERT_EQ(ack.entries.size(), windows.size());
  for (std::size_t i = 0; i < ack.entries.size(); ++i) {
    EXPECT_TRUE(ack.entries[i].accepted) << i;
    if (i > 0) {
      EXPECT_GT(ack.entries[i].local_ticket, ack.entries[i - 1].local_ticket) << i;
    }
  }
  EXPECT_EQ(shard.server->loop_solves(), windows.size());
  expect_matches_reference(ack.results, windows);
}

TEST(LoopSolve, UrgentWindowsSolveBeforeRoutine) {
  LocalShard shard(pinned_config(kCheapMs));
  let_workers_park();
  Fd fd = negotiated_connection(shard);
  std::vector<std::uint8_t> rx;
  // Routine windows first on the wire, urgent ones behind them.
  auto windows = first_windows(24);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    windows[i].priority = i < 16 ? cs::WindowPriority::kRoutine : cs::WindowPriority::kUrgent;
  }
  const Ack ack = submit_and_ack(fd, rx, windows);
  ASSERT_EQ(ack.entries.size(), windows.size());
  ASSERT_EQ(ack.results.size(), windows.size());
  // Completion order is solve order: all 8 urgent windows first.
  for (std::size_t i = 0; i < ack.results.size(); ++i) {
    const auto expected = i < 8 ? cs::WindowPriority::kUrgent : cs::WindowPriority::kRoutine;
    EXPECT_EQ(ack.results[i].priority, expected) << i;
  }
  EXPECT_EQ(shard.server->loop_solves(), windows.size());
}

TEST(LoopSolve, AckCarriesTheBatchResultsAndThePollBehindItParks) {
  // SUBMIT_BATCH and POLL_MANY in one write: the loop solves the batch
  // before it acknowledges it, so the ack carries every result and the
  // poll behind it finds nothing ready and parks.  Both admission modes:
  // blocking (deferred path) and non-blocking.
  for (const std::uint8_t flags : {kSubmitFlagBlocking, std::uint8_t{0}}) {
    SCOPED_TRACE("flags " + std::to_string(flags));
    LocalShard shard(pinned_config(kCheapMs));
    let_workers_park();
    Fd fd = negotiated_connection(shard);
    const auto windows = first_windows(16);
    std::vector<std::uint8_t> buf, rx;
    encode_submit_batch(buf, windows, flags, WireEncodeOptions{});
    encode_poll_many(buf, 0);
    ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
    const Ack ack = next_ack(fd, rx);
    expect_matches_reference(ack.results, windows);
    EXPECT_FALSE(readable_within(fd, 50)) << "nothing is left for the poll";
    EXPECT_TRUE(release_parked_poll(fd, rx).empty());
    EXPECT_EQ(shard.server->wake_writes(), 0u);
  }
}

TEST(LoopSolve, LoopSolvesRideTheAckPastAParkedPollWithoutAWakeByte) {
  // A poll parked on one connection arms the hook; the windows another
  // connection submits are solved by the loop itself, which writes no
  // self-pipe byte for its own completions, and ride in that connection's
  // ack.  The parked poll keeps waiting until its next frame releases it.
  LocalShard shard(pinned_config(kCheapMs));
  let_workers_park();
  Fd poller = negotiated_connection(shard);
  Fd submitter = negotiated_connection(shard);
  std::vector<std::uint8_t> buf, poll_rx, submit_rx;
  encode_poll_many(buf, 0);
  ASSERT_TRUE(send_all(poller.get(), buf.data(), buf.size()));
  EXPECT_FALSE(readable_within(poller, 50)) << "an idle shard must hold the poll";
  const auto windows = first_windows(8);
  const Ack ack = submit_and_ack(submitter, submit_rx, windows);
  ASSERT_EQ(ack.entries.size(), windows.size());
  expect_matches_reference(ack.results, windows);
  EXPECT_FALSE(readable_within(poller, 50)) << "the ack took every result";
  EXPECT_TRUE(release_parked_poll(poller, poll_rx).empty());
  EXPECT_EQ(shard.server->wake_writes(), 0u);
  EXPECT_EQ(shard.server->loop_solves(), windows.size());
}

// --- Results in the SUBMIT_BATCH_ACK: every result a shard has ready when
// it acknowledges a frame rides in that ack, so the client needs no
// POLL_MANY round trip for it.

TEST(AckResults, LoneWindowResultRidesItsAckAndNoPollManyIsSent) {
  // One window per SUBMIT_BATCH into an idle shard: the loop solves it
  // before acking, and poll() hands the result over without a request.
  // Frames are counted on the fault hook's clock, as in
  // LongPoll.IdlePollsSendAtMostOnePollManyPerShard.
  LocalShard shard(pinned_config(kExpensiveMs));
  let_workers_park();
  std::uint64_t sent = 0;
  auto cfg = client_config();
  cfg.fault_inject = [&sent](std::size_t, std::uint64_t frame) {
    sent = frame + 1;
    return false;
  };
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({shard.endpoint()}));
  const auto windows = first_windows(8);
  std::vector<WindowResult> results;
  for (const auto& window : windows) {
    ASSERT_TRUE(client.submit(CompressedWindow(window)).has_value());
    auto result = client.poll();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(key_of(*result), key_of(window));
    results.push_back(std::move(*result));
  }
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(client.poll().has_value());
  expect_matches_reference(results, windows);
  EXPECT_EQ(sent, windows.size()) << "one SUBMIT_BATCH per window and no POLL_MANY";
  EXPECT_EQ(shard.server->ack_results(), windows.size());
  EXPECT_EQ(shard.server->poll_answers(), 0u);
  EXPECT_EQ(shard.server->loop_solves(), windows.size());
  client.shutdown(/*send_bye=*/false);
}

TEST(AckResults, HeldResultRidesTheAckAndTheWorkersComeByPollMany) {
  // One frame of 8 pinned-expensive windows into an idle shard: the loop
  // holds the first and the worker takes the rest, each far slower than
  // the ack.  The held window's result rides in the ack; the worker's come
  // through POLL_MANY; each arrives once.
  LocalShard shard(slow_worker_config());
  let_workers_park();
  RoutingClient client(client_config());
  ASSERT_TRUE(client.connect({shard.endpoint()}));
  auto windows = first_windows(8);
  for (auto& w : windows) w.priority = cs::WindowPriority::kRoutine;
  for (const auto& window : windows) {
    ASSERT_TRUE(client.submit_pipelined(CompressedWindow(window)));
  }
  for (const auto& ticket : client.flush_submits()) ASSERT_TRUE(ticket.has_value());
  EXPECT_EQ(shard.server->loop_solves(), 1u);
  EXPECT_GE(shard.server->ack_results(), 1u);
  EXPECT_LT(shard.server->ack_results(), windows.size());

  std::vector<WindowResult> results;
  std::set<WindowKey> seen;
  for (int waited_ms = 0; results.size() < windows.size() && waited_ms < 5000; ++waited_ms) {
    while (auto result = client.poll()) {
      EXPECT_TRUE(seen.insert(key_of(*result)).second) << "delivered twice";
      results.push_back(std::move(*result));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(results.size(), windows.size());
  for (const auto& w : windows) EXPECT_TRUE(seen.count(key_of(w))) << w.window_index;
  EXPECT_GE(shard.server->poll_answers(), 1u);
  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.retrieved, windows.size());
  EXPECT_EQ(agg.ready, 0u);
  client.shutdown(/*send_bye=*/false);
}

TEST(AckResults, SerialShardAckCarriesNone) {
  // A serial engine solves inside engine.poll(): an ack that carried its
  // results would solve the whole queue at every submit.  Its windows stay
  // queued until polled (CrHints.PressureGateOpensUnderBacklogAndClosesAfterDrain
  // prices exactly that backlog).
  LocalShard shard(0);
  RoutingClient client(client_config());
  ASSERT_TRUE(client.connect({shard.endpoint()}));
  const auto windows = first_windows(3);
  for (const auto& window : windows) {
    ASSERT_TRUE(client.submit(CompressedWindow(window)).has_value());
  }
  EXPECT_EQ(shard.server->ack_results(), 0u);
  EXPECT_EQ(shard.server->engine().in_flight(), windows.size());
  expect_matches_reference(client.drain(), windows);
  EXPECT_EQ(shard.server->ack_results(), 0u);
  EXPECT_GE(shard.server->poll_answers(), 1u);
  client.shutdown(/*send_bye=*/false);
}

TEST(AckResults, DeferredBlockingSubmitAckCarriesTheResultsReadyByThen) {
  // 64 pinned-expensive windows against 2 slots: the blocking submit parks
  // until worker completions (hook wakes) admit the rest.  Nothing takes a
  // result meanwhile, and at most 2 windows are in flight when the last is
  // admitted, so the deferred ack carries at least 62 results.
  LocalShard shard(pinned_config(kExpensiveMs, /*queue_capacity=*/2));
  Fd fd = negotiated_connection(shard);
  std::vector<std::uint8_t> rx;
  const auto windows = first_windows(64);
  Ack ack = submit_and_ack(fd, rx, windows);
  ASSERT_EQ(ack.entries.size(), windows.size());
  EXPECT_GE(shard.server->wake_writes(), 1u) << "the submit must have been deferred";
  EXPECT_GE(ack.results.size(), windows.size() - 2);
  EXPECT_EQ(shard.server->ack_results(), ack.results.size());
  expect_matches_reference(ack_then_poll(fd, rx, std::move(ack), windows.size()), windows);
}

TEST(AckResults, SetTopologyRightAfterAFlushDeliversEveryResultOnce) {
  // Both shards solve every window on their loops (pinned cheap), so every
  // result rides in the flush's acks and sits in the client's links when
  // the reshard retires b and adds c.  Each is delivered exactly once.
  LocalShard a(pinned_config(kCheapMs)), b(pinned_config(kCheapMs)), c(1);
  let_workers_park();
  RoutingClient client(client_config());
  ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/3);
  for (const auto& window : traffic) {
    ASSERT_TRUE(client.submit_pipelined(CompressedWindow(window)));
  }
  for (const auto& ticket : client.flush_submits()) ASSERT_TRUE(ticket.has_value());
  ASSERT_GT(b.server->ack_results(), 0u);
  EXPECT_EQ(a.server->ack_results() + b.server->ack_results(), traffic.size());

  ASSERT_TRUE(client.set_topology({a.endpoint(), c.endpoint()}));
  std::vector<WindowResult> results;
  std::set<WindowKey> seen;
  for (auto&& r : client.drain()) {
    EXPECT_TRUE(seen.insert(key_of(r)).second) << "delivered twice";
    results.push_back(std::move(r));
  }
  expect_matches_reference(results, traffic);
  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.submitted, traffic.size());
  EXPECT_EQ(agg.retrieved, traffic.size());
  EXPECT_EQ(agg.lost, 0u);
  client.shutdown(/*send_bye=*/false);
}

TEST(AckResults, FailoverDeliversTheResultsTheAcksCarried) {
  // Shard 0 solves every lone window on its loop, so each result rides in
  // its ack and waits in the client's link.  When shard 0 dies, the
  // failover hands those results over: none of its windows is lost.
  LocalShard a(pinned_config(kExpensiveMs)), b(1);
  let_workers_park();
  auto cfg = client_config();
  cfg.reconnect_attempts = 0;
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/2);
  std::uint64_t acked_to_dead = 0;
  for (const auto& window : traffic) {
    ASSERT_TRUE(client.submit(CompressedWindow(window)).has_value());
    acked_to_dead += client.owner(window.patient_id) == 0;
  }
  ASSERT_GT(acked_to_dead, 0u);
  ASSERT_EQ(a.server->ack_results(), acked_to_dead);
  a.kill();
  ASSERT_TRUE(client.fail_shard(0));

  std::vector<WindowResult> results;
  std::set<WindowKey> seen;
  for (auto&& r : client.drain()) {
    EXPECT_TRUE(seen.insert(key_of(r)).second) << "delivered twice";
    results.push_back(std::move(r));
  }
  expect_matches_reference(results, traffic);
  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.lost, 0u);
  EXPECT_EQ(agg.submitted, traffic.size());
  EXPECT_EQ(agg.completed, traffic.size());
  client.shutdown(/*send_bye=*/false);
}

TEST(Failover, ReconnectDeliversAnAnswerAlreadyReceived) {
  // A serial shard answers a POLL_MANY at once.  The second submit
  // releases the poll armed by poll() and carries a fresh one behind it in
  // the same write, so its SUBMIT_BATCH_ACK and that poll's RESULT_BATCH
  // leave the shard in one send and arrive in one read: the ack is
  // consumed and the RESULT_BATCH stays buffered.  The third submit dies
  // at its send (fault hook), and the reconnect that follows must deliver
  // the buffered result, which the shard counted as retrieved when it
  // sent it.
  LocalShard shard(0);
  auto cfg = client_config();
  cfg.fault_inject = [](std::size_t, std::uint64_t frame) { return frame == 3; };
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({shard.endpoint()}));
  const auto windows = first_windows(3);
  // Frame 0: a submit.  Frame 1: poll() arms a POLL_MANY.
  ASSERT_TRUE(client.submit(CompressedWindow(windows[0])).has_value());
  EXPECT_FALSE(client.poll().has_value());
  // Frame 2: a submit with a fresh POLL_MANY behind it.
  ASSERT_TRUE(client.submit(CompressedWindow(windows[1])).has_value());
  // Frame 3 dies before the wire: its window is lost, never retried.
  EXPECT_FALSE(client.submit(CompressedWindow(windows[2])).has_value());

  const auto results = client.drain();
  std::set<WindowKey> seen;
  for (const auto& r : results) EXPECT_TRUE(seen.insert(key_of(r)).second);
  EXPECT_EQ(seen, (std::set<WindowKey>{key_of(windows[0]), key_of(windows[1])}));
  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.submitted, 2u);
  EXPECT_EQ(agg.retrieved, 2u);
  client.shutdown(/*send_bye=*/false);
}

TEST(Protocol, HealthEchoesNonce) {
  // The liveness probe is a SNAPSHOT: the nonce comes back echoed, with
  // the engine's live queue depths (an idle shard reports 0/0).
  LocalShard shard(0);
  Fd fd = negotiated_connection(shard);
  SnapshotPayload counters;
  expect_snapshot_echo(fd, /*nonce=*/0xFACE5EED, counters);
  EXPECT_EQ(counters.unsolved, 0u);
  EXPECT_EQ(counters.ready, 0u);
}

TEST(Protocol, TalkingBeforeHelloIsRefused) {
  LocalShard shard(0);
  Fd fd = tcp_connect("127.0.0.1", shard.server->port(), 2000, 2000);
  ASSERT_TRUE(fd.valid());
  std::vector<std::uint8_t> buf;
  encode_poll_many(buf, 1);  // POLL_MANY before HELLO.
  ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
  expect_error_then_close(fd, ErrorCode::kNotNegotiated);
}

TEST(Protocol, UnknownVersionGetsErrorNotGuesswork) {
  // A well-formed frame (CRC valid) stamped with an earlier version or a
  // future one.
  LocalShard shard(0);
  constexpr std::uint8_t kVersions[] = {2, kWireVersion - 1, kWireVersion + 1};
  for (const std::uint8_t version : kVersions) {
    SCOPED_TRACE("header version " + std::to_string(version));
    Fd fd = tcp_connect("127.0.0.1", shard.server->port(), 2000, 2000);
    ASSERT_TRUE(fd.valid());
    std::vector<std::uint8_t> buf;
    encode_poll_many(buf, 1);
    buf[2] = version;
    const std::uint32_t crc = crc32c(buf.data(), buf.size() - kFrameTrailerBytes);
    buf[buf.size() - 4] = static_cast<std::uint8_t>(crc);
    buf[buf.size() - 3] = static_cast<std::uint8_t>(crc >> 8);
    buf[buf.size() - 2] = static_cast<std::uint8_t>(crc >> 16);
    buf[buf.size() - 1] = static_cast<std::uint8_t>(crc >> 24);
    ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
    expect_error_then_close(fd, ErrorCode::kUnsupportedVersion);
  }
}

TEST(Protocol, VersionNegotiationPicksMutualVersion) {
  LocalShard shard(0);
  Fd fd = tcp_connect("127.0.0.1", shard.server->port(), 2000, 2000);
  ASSERT_TRUE(fd.valid());
  // Offer a range spanning far beyond what this build speaks: the server
  // picks the one version it speaks.
  std::vector<std::uint8_t> buf;
  encode_hello(buf, HelloPayload{1, 200});
  ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));

  std::vector<std::uint8_t> acc;
  FrameView view;
  read_one(fd, acc, view);
  ASSERT_EQ(view.type, FrameType::kHelloAck);
  std::uint8_t version = 0;
  ASSERT_TRUE(decode_hello_ack(view.payload, version));
  EXPECT_EQ(version, kWireVersion);

  // Offers entirely above or entirely below the version this build speaks
  // (a peer of any earlier version) are refused.
  constexpr std::uint8_t kPrevious = kWireVersion - 1;
  for (const HelloPayload offer : {HelloPayload{kWireVersion + 1, kWireVersion + 4},
                                   HelloPayload{1, 2}, HelloPayload{1, kPrevious},
                                   HelloPayload{kPrevious, kPrevious}}) {
    Fd fd2 = tcp_connect("127.0.0.1", shard.server->port(), 2000, 2000);
    ASSERT_TRUE(fd2.valid());
    buf.clear();
    encode_hello(buf, offer);
    ASSERT_TRUE(send_all(fd2.get(), buf.data(), buf.size()));
    expect_error_then_close(fd2, ErrorCode::kUnsupportedVersion);
  }
}

TEST(Protocol, RetiredFrameTypesAreRefused) {
  // Types 4-9 were the per-window verbs, 24-27 CR_HINT, CR_HINT_ACK,
  // HEALTH and HEALTH_ACK.  Their numbers are never reused: a well-formed
  // frame carrying one is an unknown type, refused and closed, and the
  // shard keeps serving other connections.
  LocalShard shard(0);
  for (const int type : {4, 7, 24, 25, 26, 27}) {
    SCOPED_TRACE("frame type " + std::to_string(type));
    Fd fd = negotiated_connection(shard);
    std::vector<std::uint8_t> buf;
    const std::size_t p = frame_begin(buf, static_cast<FrameType>(type));
    put_varint(buf, 64);
    frame_end(buf, p);
    ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
    expect_error_then_close(fd, ErrorCode::kUnknownFrameType);
    Fd other = negotiated_connection(shard);
    SnapshotPayload counters;
    expect_snapshot_echo(other, static_cast<std::uint64_t>(type), counters);
  }
}

TEST(Protocol, HostileWindowShapeIsRefusedAndTheShardStaysLive) {
  // A window whose column density exceeds its measurement count would make
  // the sensing-matrix build spin forever on the server's event loop.  The
  // decoder must refuse it, and the shard must keep answering others.  A
  // SNAPSHOT_REQUEST whose nonce is missing, cut short or followed by
  // stray bytes is refused the same way.
  LocalShard shard(1);
  CompressedWindow hostile = fleet_traffic(/*patients=*/1, /*beats_per_patient=*/1).front();
  hostile.ones_per_column = static_cast<std::uint32_t>(hostile.measurements.size()) + 1;
  const auto snapshot_request = [](std::vector<std::uint8_t> payload) {
    std::vector<std::uint8_t> buf;
    const std::size_t p = frame_begin(buf, FrameType::kSnapshotRequest);
    buf.insert(buf.end(), payload.begin(), payload.end());
    frame_end(buf, p);
    return buf;
  };
  std::vector<std::uint8_t> window_frame;
  encode_submit_batch(window_frame, {&hostile, 1}, /*flags=*/0, WireEncodeOptions{});
  const std::vector<std::pair<std::string, std::vector<std::uint8_t>>> frames{
      {"hostile window shape", window_frame},
      {"SNAPSHOT_REQUEST without a nonce", snapshot_request({})},
      {"SNAPSHOT_REQUEST with a truncated nonce", snapshot_request({0x80})},
      {"SNAPSHOT_REQUEST with trailing bytes", snapshot_request({0x07, 0xAA})}};

  auto cfg = client_config();
  cfg.reconnect_attempts = 0;
  cfg.health_probe_timeout_ms = 500;
  cfg.io_timeout_ms = cfg.health_probe_timeout_ms;
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({shard.endpoint()}));
  for (const auto& [name, buf] : frames) {
    SCOPED_TRACE(name);
    Fd fd = negotiated_connection(shard);
    ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
    expect_error_then_close(fd, ErrorCode::kBadPayload);
    EXPECT_TRUE(client.probe_health(0)) << "one hostile frame must not wedge the shard";
  }
  client.shutdown(/*send_bye=*/false);
}

}  // namespace
}  // namespace wbsn::net
