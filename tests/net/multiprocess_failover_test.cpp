// The PR 10 acceptance test: crash recovery must survive a real kill -9.
// Each shard is a fork/exec'd shard_serverd daemon; one of them is
// SIGKILLed mid-stream with a solving backlog it will never surrender.
// The coordinator detects the corpse, opens a failover epoch, re-homes
// the dead shard's patients onto the survivors, and keeps serving — with
// every destroyed window accounted under the explicit `lost` counter, so
// conservation becomes
//
//   submitted == completed + shed + rejected + lost
//
// and every signal the fleet *does* return stays bit-identical to the
// serial in-process reference.  A second test kills a daemon while the
// client's long-poll POLL_MANY is parked on it: whatever the daemon pushed
// before dying counts as completed, the rest as lost, and the identity
// stays exact.  A third covers the satellite fix: SIGTERM must shut a
// daemon down cleanly through the async-signal-safe self-pipe path
// (exit 0, never a crash or a hang).

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cs/pipeline.hpp"
#include "host/coordinator.hpp"
#include "net/routing_client.hpp"
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
  return traffic;
}

std::map<WindowKey, WindowResult> serial_reference(
    const std::vector<CompressedWindow>& traffic) {
  // Default engine config, like the daemons (the CLI exposes capacity and
  // deadline knobs, not solver internals).
  EngineConfig cfg;
  cfg.threads = 0;
  std::map<WindowKey, WindowResult> reference;
  ReconstructionEngine serial(cfg);
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    serial.submit(std::move(copy));
  }
  for (auto& result : serial.drain()) {
    reference.emplace(WindowKey{result.patient_id, result.window_index}, std::move(result));
  }
  return reference;
}

/// One shard_serverd child process (see multiprocess_reshard_test.cpp for
/// the orderly-lifecycle twin).  This harness adds kill9(): the real
/// SIGKILL — no handler runs, no state is flushed, the backlog dies.
class ShardDaemon {
 public:
  ShardDaemon() { spawn(); }

 private:
  void spawn() {
    int out[2] = {-1, -1};
    EXPECT_EQ(::pipe(out), 0);
    pid_ = ::fork();
    ASSERT_NE(pid_, -1);
    if (pid_ == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      const std::string scale = std::to_string(cs::measurement_scale_mv(sig::AdcConfig{}));
      ::execl(WBSN_SHARD_SERVERD_PATH, "shard_serverd", "--threads", "1",
              "--fixed-scale", scale.c_str(), static_cast<char*>(nullptr));
      std::perror("execl shard_serverd");
      ::_exit(127);
    }
    ::close(out[1]);

    std::string line;
    char ch = 0;
    while (::read(out[0], &ch, 1) == 1 && ch != '\n') line.push_back(ch);
    ::close(out[0]);
    unsigned port = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "PORT %u", &port), 1)
        << "daemon readiness line was: '" << line << "'";
    port_ = static_cast<std::uint16_t>(port);
  }

 public:
  ~ShardDaemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  /// SIGKILL — the crash under test.  The kernel reaps the process before
  /// any user code runs: no BYE, no flush, the engine's backlog is gone.
  void kill9() {
    ASSERT_GT(pid_, 0);
    ASSERT_EQ(::kill(pid_, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid_, &status, 0), pid_);
    EXPECT_TRUE(WIFSIGNALED(status)) << "expected a signal death, got exit "
                                     << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    if (WIFSIGNALED(status)) {
      EXPECT_EQ(WTERMSIG(status), SIGKILL);
    }
    pid_ = -1;
  }

  /// Sends `sig` and waits for a *clean* exit — the async-signal-safe
  /// shutdown path (self-pipe wake, stop on the loop thread, exit 0).
  void signal_and_expect_clean_exit(int sig) {
    ASSERT_GT(pid_, 0);
    ASSERT_EQ(::kill(pid_, sig), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid_, &status, 0), pid_);
    EXPECT_TRUE(WIFEXITED(status)) << "daemon killed by signal " << WTERMSIG(status);
    if (WIFEXITED(status)) {
      EXPECT_EQ(WEXITSTATUS(status), 0);
    }
    pid_ = -1;
  }

  /// Waits for the daemon to exit on its own (after BYE); asserts clean.
  void reap() {
    ASSERT_GT(pid_, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid_, &status, 0), pid_);
    EXPECT_TRUE(WIFEXITED(status)) << "daemon killed by signal " << WTERMSIG(status);
    if (WIFEXITED(status)) {
      EXPECT_EQ(WEXITSTATUS(status), 0);
    }
    pid_ = -1;
  }

  ShardEndpoint endpoint() const { return {"127.0.0.1", port_}; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

TEST(MultiProcessFailover, Kill9MidStreamRecoversWithConservationAndBitIdenticalSurvivors) {
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/3);
  const auto reference = serial_reference(traffic);

  ShardDaemon d0, d1, d2;
  RoutingClientConfig client_cfg;
  client_cfg.wire.fixed_scale = cs::measurement_scale_mv(sig::AdcConfig{});
  client_cfg.auto_failover = true;
  client_cfg.reconnect_attempts = 0;  // A dead port refuses fast; don't back off.
  client_cfg.health_probe_timeout_ms = 1000;
  RoutingClient client(client_cfg);
  ASSERT_TRUE(client.connect({d0.endpoint(), d1.endpoint(), d2.endpoint()}));

  std::map<WindowKey, WindowResult> results;
  std::set<std::uint64_t> tickets;
  const auto keep = [&](WindowResult&& r) {
    const WindowKey key{r.patient_id, r.window_index};
    EXPECT_TRUE(tickets.insert(r.ticket).second) << "duplicate ticket";
    EXPECT_TRUE(results.emplace(key, std::move(r)).second) << "duplicate result";
  };

  // Phase 1: a fully drained round through all three daemons — these
  // windows are safe whatever happens next.
  const std::size_t half = traffic.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    CompressedWindow copy = traffic[i];
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
  }
  for (auto&& r : client.drain()) keep(std::move(r));
  ASSERT_EQ(results.size(), half);

  // Phase 2: load the fleet in one pipelined flush and kill d1 while its
  // backlog is in flight.  The epoch-0 ring tells us which windows d1
  // acknowledged.  Each frame's first window reached an idle engine, so d1
  // solved it before acking and its result rode in the ack; the windows
  // queued behind it for d1's worker die with d1.
  std::set<WindowKey> lost_keys;
  for (std::size_t i = half; i < traffic.size(); ++i) {
    CompressedWindow copy = traffic[i];
    if (client.owner(copy.patient_id) == 1) {
      lost_keys.insert({traffic[i].patient_id, traffic[i].window_index});
    }
    ASSERT_TRUE(client.submit_pipelined(std::move(copy)));
  }
  ASSERT_GT(lost_keys.size(), 1u) << "the test needs patients on the daemon that dies";
  for (const auto& ticket : client.flush_submits()) ASSERT_TRUE(ticket.has_value());
  d1.kill9();

  // Detection: the health sweep finds the corpse and (auto_failover) opens
  // the failover epoch on the spot.  Survivors keep their indices.
  const auto dead = client.check_health();
  ASSERT_EQ(dead, std::vector<std::size_t>{1});
  EXPECT_TRUE(client.shard_failed(1));
  EXPECT_EQ(client.epoch(), 1u);
  EXPECT_EQ(client.shard_count(), 3u);
  EXPECT_EQ(client.live_shard_count(), 2u);
  for (const auto& window : traffic) {
    EXPECT_NE(client.owner(window.patient_id), 1u) << "a corpse must own no patients";
  }

  // What d1 delivered before dying (the results in its acks, which the
  // failover handed over) is not lost; the rest is.
  for (auto&& r : client.drain()) {
    lost_keys.erase({r.patient_id, r.window_index});
    keep(std::move(r));
  }
  const std::uint64_t lost_expected = lost_keys.size();
  ASSERT_GT(lost_expected, 0u) << "d1 must die holding windows it had not solved";

  // The fleet keeps serving: re-home the lost windows' patients by
  // resubmitting their windows — the ring now routes them to survivors.
  for (std::size_t i = half; i < traffic.size(); ++i) {
    const WindowKey key{traffic[i].patient_id, traffic[i].window_index};
    if (lost_keys.count(key) == 0) continue;
    CompressedWindow copy = traffic[i];
    const auto ticket = client.submit(std::move(copy));
    ASSERT_TRUE(ticket.has_value()) << "post-failover submits must succeed";
    EXPECT_EQ(host::Coordinator::ticket_epoch(*ticket), 1u);
    EXPECT_NE(host::Coordinator::ticket_shard(*ticket), 1u);
  }
  for (auto&& r : client.drain()) keep(std::move(r));

  // Every window of every patient came back — the lost ones through their
  // post-failover resubmission — and each is bit-identical to the serial
  // reference: the crash cost availability, never correctness.
  ASSERT_EQ(results.size(), traffic.size());
  for (const auto& [key, expected] : reference) {
    const auto found = results.find(key);
    ASSERT_NE(found, results.end());
    EXPECT_TRUE(bit_identical(found->second.signal, expected.signal))
        << "patient " << key.first << " window " << key.second
        << " diverged across the kill -9";
    EXPECT_EQ(found->second.iterations, expected.iterations);
    EXPECT_EQ(found->second.snr_db, expected.snr_db);
  }

  // Crash-proof conservation: the client's mirrors account every window
  // the dead daemon acknowledged, split exactly into retrieved-in-time
  // (phase 1 and the phase-2 results its acks carried) and lost.
  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.lost, lost_expected);
  // phase 1 + phase 2 + the lost windows' resubmissions.
  EXPECT_EQ(agg.submitted, traffic.size() + lost_expected);
  EXPECT_EQ(agg.rejected, 0u);
  EXPECT_EQ(agg.shed_routine + agg.shed_urgent, 0u);
  EXPECT_EQ(agg.submitted, agg.completed + agg.shed_routine + agg.shed_urgent +
                               agg.rejected + agg.lost)
      << "submitted == completed + shed + rejected + lost must survive kill -9";
  EXPECT_EQ(agg.unsolved, 0u);
  EXPECT_EQ(agg.ready, 0u);

  // Orderly dismissal of the two survivors.
  client.shutdown(/*send_bye=*/true);
  d0.reap();
  d2.reap();
}

TEST(MultiProcessFailover, Kill9WithAParkedPollKeepsConservationExact) {
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/3);
  const auto reference = serial_reference(traffic);

  ShardDaemon d0, d1;
  RoutingClientConfig client_cfg;
  client_cfg.wire.fixed_scale = cs::measurement_scale_mv(sig::AdcConfig{});
  client_cfg.auto_failover = true;
  client_cfg.reconnect_attempts = 0;
  client_cfg.health_probe_timeout_ms = 1000;
  client_cfg.pipeline_depth = 4;
  RoutingClient client(client_cfg);
  ASSERT_TRUE(client.connect({d0.endpoint(), d1.endpoint()}));

  // One flush lands every window on its daemon at once.
  std::uint64_t owned_by_d1 = 0;
  for (const auto& window : traffic) {
    owned_by_d1 += client.owner(window.patient_id) == 1;
    CompressedWindow copy = window;
    ASSERT_TRUE(client.submit_pipelined(std::move(copy)));
  }
  ASSERT_GT(owned_by_d1, 0u) << "the test needs patients on the daemon that dies";
  for (const auto& ticket : client.flush_submits()) ASSERT_TRUE(ticket.has_value());

  // This poll() returns a result that rode in an ACK, if any, and arms one
  // POLL_MANY per daemon still owed results; d1 dies with its poll parked
  // or just answered.
  std::vector<WindowResult> results;
  if (auto first = client.poll()) results.push_back(std::move(*first));
  d1.kill9();
  ASSERT_EQ(client.check_health(), std::vector<std::size_t>{1});

  // Results d1 pushed before dying still arrive; the rest are lost.
  std::uint64_t returned_by_d1 = 0;
  for (auto&& result : client.drain()) results.push_back(std::move(result));
  for (const auto& result : results) {
    returned_by_d1 += host::Coordinator::ticket_shard(result.ticket) == 1;
    const auto ref = reference.find({result.patient_id, result.window_index});
    ASSERT_NE(ref, reference.end());
    EXPECT_TRUE(bit_identical(result.signal, ref->second.signal))
        << "patient " << result.patient_id << " window " << result.window_index;
  }
  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.submitted, traffic.size());
  EXPECT_EQ(agg.lost, owned_by_d1 - returned_by_d1);
  EXPECT_EQ(agg.completed, results.size());
  EXPECT_EQ(agg.submitted, agg.completed + agg.shed_routine + agg.shed_urgent +
                               agg.rejected + agg.lost)
      << "submitted == completed + shed + rejected + lost must survive a parked poll";
  EXPECT_EQ(agg.unsolved, 0u);
  EXPECT_EQ(agg.ready, 0u);

  client.shutdown(/*send_bye=*/true);
  d0.reap();
}

TEST(MultiProcessFailover, SigtermShutsDownCleanlyEvenUnderLoad) {
  // The satellite-2 regression test: SIGTERM lands while the daemon is
  // mid-stream with a solving backlog.  The handler may only set a flag
  // and write the self-pipe; the event loop notices and stops on its own
  // thread — the process must exit 0, never crash, hang, or deadlock.
  const auto traffic = fleet_traffic(/*patients=*/2, /*beats_per_patient=*/2);

  ShardDaemon daemon;
  RoutingClientConfig client_cfg;
  client_cfg.wire.fixed_scale = cs::measurement_scale_mv(sig::AdcConfig{});
  RoutingClient client(client_cfg);
  ASSERT_TRUE(client.connect({daemon.endpoint()}));
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
  }

  daemon.signal_and_expect_clean_exit(SIGTERM);
  client.shutdown(/*send_bye=*/false);
}

}  // namespace
}  // namespace wbsn::net
