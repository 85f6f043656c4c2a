// One measured pass of a workload: an in-process shard fleet over loopback
// TCP, one single-threaded client generator, and the phases that measure
// it.  The pass records per-window times and results; main.cpp turns them
// into metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "host/payload_pool.hpp"
#include "inputs.hpp"
#include "net/routing_client.hpp"
#include "net/shard_server.hpp"
#include "trace.hpp"

namespace fleetbench {

/// The client's polling cadence: it submits what fell due, flushes and
/// polls once per tick.  A fixed cadence keeps the client's CPU per window
/// independent of how fast the host happens to run.
constexpr std::chrono::microseconds kPollInterval{1000};

/// ShardServers on 127.0.0.1, each with its own event-loop thread — the
/// daemon's protocol path without fork/exec.
class Fleet {
 public:
  Fleet() = default;
  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  bool start(std::size_t count, const wbsn::host::EngineConfig& engine, double fixed_scale);
  void stop();

  std::size_t size() const { return shards_.size(); }
  wbsn::net::ShardEndpoint endpoint(std::size_t i) const {
    return {"127.0.0.1", shards_[i]->server->port()};
  }
  wbsn::host::ReconstructionEngine& engine(std::size_t i) { return shards_[i]->server->engine(); }
  wbsn::host::PayloadPoolStats pool_stats(std::size_t i) const {
    return shards_[i]->pool->stats();
  }

 private:
  struct Shard {
    std::shared_ptr<wbsn::host::PayloadPool> pool;
    std::unique_ptr<wbsn::net::ShardServer> server;
    std::thread loop;
  };
  std::vector<std::unique_ptr<Shard>> shards_;
};

enum class Phase : std::uint8_t { kWarmup, kFixedRate, kCapacity };
enum class State : std::uint8_t { kStaged, kAccepted, kFailed, kReceived };

/// Everything known about one submitted window.
struct WindowRecord {
  std::uint32_t source = 0;
  Phase phase = Phase::kWarmup;
  State state = State::kStaged;
  Clock::time_point due{};       ///< When the node finished acquiring it.
  Clock::time_point start{};     ///< When the generator began encoding it.
  Clock::time_point received{};  ///< When poll() handed back its result.
  double encode_us = 0.0;
  double e2e_ms = 0.0;    ///< Engine enqueue -> complete.
  double solve_ms = 0.0;  ///< WindowResult::latency_ms.
  double snr_db = 0.0;
};

struct SessionOptions {
  std::uint64_t seed = 1;
  bool traced = false;
  bool corrupt_result = false;   ///< Self-check: flip one bit of one result.
  bool stall_generator = false;  ///< Self-check: stall the open-loop generator.
};

class Session {
 public:
  Session(const Workload& w, const Inputs& in, SessionOptions opts);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Starts the fleet, connects, warms the matrix caches; repeated
  /// `repeats` times (all but the last torn down).  Returns the process CPU
  /// seconds each set-up took: on a shared host, steal time moved its wall
  /// time far more than any work the set-up does.
  std::vector<double> setup(int repeats);
  /// Open-loop Poisson traffic at the workload's fixed rate.
  void run_fixed_rate(double seconds);
  /// Closed-loop capacity probes, one shard at a time.
  void run_capacity(double seconds);
  /// Starts spare shards and runs grow/shrink cycles on the quiesced fleet.
  void run_idle_reshards();
  /// Conservation and accounting checks; gathers the fleet's counters.
  void finish();

  const std::vector<WindowRecord>& records() const { return records_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const Tracer& tracer() const { return tracer_; }

  // Phase results.
  double fixed_cpu_s = 0.0;     ///< Process CPU over the fixed-rate phase.
  double capacity_win_per_s = 0.0;
  std::vector<double> reshard_ms;
  std::vector<double> moved_patients;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  wbsn::net::SnapshotPayload snapshot{};  ///< Fleet aggregate after finish().
  std::uint64_t grouped_windows = 0;      ///< Summed over shard engines.
  std::uint64_t engine_completed = 0;
  wbsn::host::PayloadPoolStats pools{};   ///< Shards + client, summed.
  double cost_model_err = 0.0;

 private:
  void fail(std::string what);
  void build();
  void submit(std::uint32_t source, Phase phase, Clock::time_point due, std::int64_t parent);
  void flush(std::int64_t parent);
  std::size_t poll_all(std::int64_t parent);
  void on_result(wbsn::host::WindowResult&& result, Clock::time_point now);
  /// Polls until every accepted window came back; fails at `hard_stop`.
  void drain_outstanding(Clock::time_point hard_stop);
  /// Completion rate of one shard driven by `patients` alone, win/s.
  double probe_capacity(const std::vector<std::uint32_t>& patients, double seconds);
  void reshard_to(std::size_t spare, bool grow);

  Workload w_;
  const Inputs& in_;
  SessionOptions opts_;
  wbsn::host::EngineConfig engine_cfg_;
  double fixed_scale_ = 0.0;
  Tracer tracer_;
  std::unique_ptr<Fleet> fleet_;
  std::shared_ptr<wbsn::host::PayloadPool> client_pool_;
  std::unique_ptr<wbsn::net::RoutingClient> client_;
  std::vector<wbsn::net::ShardEndpoint> topology_;
  std::vector<WindowRecord> records_;
  std::vector<std::uint32_t> unflushed_;
  std::vector<std::string> failures_;
  std::uint64_t in_flight_ = 0;  ///< Staged/accepted, not yet received.
  std::uint64_t next_traffic_ = 0;
  bool corrupted_ = false;
};

}  // namespace fleetbench
