#include "session.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "sig/adc.hpp"
#include "sig/rng.hpp"

namespace fleetbench {

using namespace wbsn;
using std::chrono::milliseconds;

namespace {

/// Spare shards started for the idle reshard cycles: each grow/shrink cycle
/// joins one, so no engine re-enters the topology after retirement.
constexpr std::size_t kSpareShards = 4;
constexpr std::size_t kMaxFailureMessages = 16;
/// Self-check stall: the generator sleeps this long every kStallEvery ticks.
constexpr milliseconds kStall{60};
constexpr std::uint64_t kStallEvery = 100;

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void add(host::PayloadPoolStats& sum, const host::PayloadPoolStats& s) {
  sum.hits += s.hits;
  sum.misses += s.misses;
  sum.recycled += s.recycled;
  sum.dropped += s.dropped;
}

}  // namespace

bool Fleet::start(std::size_t count, const host::EngineConfig& engine, double fixed_scale) {
  for (std::size_t i = 0; i < count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->pool = std::make_shared<host::PayloadPool>();
    net::ShardServerConfig cfg;
    cfg.engine = engine;
    cfg.engine.payload_pool = shard->pool;
    cfg.wire.fixed_scale = fixed_scale;
    shard->server = std::make_unique<net::ShardServer>(cfg);
    if (!shard->server->start()) return false;
    shard->loop = std::thread([server = shard->server.get()] { server->run(); });
    shards_.push_back(std::move(shard));
  }
  return true;
}

void Fleet::stop() {
  for (auto& shard : shards_) {
    shard->server->stop();
    if (shard->loop.joinable()) shard->loop.join();
  }
  shards_.clear();
}

Session::Session(const Workload& w, const Inputs& in, SessionOptions opts)
    : w_(w),
      in_(in),
      opts_(opts),
      engine_cfg_(engine_config(w)),
      fixed_scale_(cs::measurement_scale_mv(sig::AdcConfig{})),
      tracer_(opts.traced, Clock::now()) {}

Session::~Session() {
  if (client_) client_->shutdown(/*send_bye=*/false);
}

void Session::fail(std::string what) {
  if (failures_.size() < kMaxFailureMessages) failures_.push_back(std::move(what));
}

std::vector<double> Session::setup(int repeats) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    if (client_) client_->shutdown(/*send_bye=*/false);
    client_.reset();
    fleet_.reset();
    records_.clear();
    unflushed_.clear();
    in_flight_ = 0;
    polls = empty_polls = 0;
    const double cpu0 = cpu_seconds();
    build();
    times.push_back(cpu_seconds() - cpu0);
    if (!failures_.empty()) break;
  }
  return times;
}

void Session::build() {
  fleet_ = std::make_unique<Fleet>();
  if (!fleet_->start(w_.shards, engine_cfg_, fixed_scale_)) {
    fail("setup: a shard server failed to start");
    return;
  }
  client_pool_ = std::make_shared<host::PayloadPool>();
  net::RoutingClientConfig cfg;
  cfg.wire.fixed_scale = fixed_scale_;
  cfg.payload_pool = client_pool_;
  cfg.pipeline_depth = 4;
  cfg.submit_batch_windows = 16;
  client_ = std::make_unique<net::RoutingClient>(cfg);
  topology_.clear();
  for (std::size_t i = 0; i < w_.shards; ++i) topology_.push_back(fleet_->endpoint(i));
  if (!client_->connect(topology_)) {
    fail("setup: client failed to connect");
    return;
  }
  // Matrix-cache warm-up: one window through every initial shard.
  for (std::size_t shard = 0; shard < w_.shards; ++shard) {
    for (std::uint32_t p = 0; p < in_.by_patient.size(); ++p) {
      if (client_->owner(p) != shard) continue;
      submit(in_.by_patient[p].front(), Phase::kWarmup, Clock::now(), -1);
      break;
    }
  }
  drain_outstanding(Clock::now() + std::chrono::seconds(20));
}

void Session::submit(std::uint32_t source, Phase phase, Clock::time_point due,
                     std::int64_t parent) {
  const auto seq = static_cast<std::uint32_t>(records_.size());
  records_.push_back({});
  WindowRecord& rec = records_.back();
  rec.source = source;
  rec.phase = phase;
  rec.due = due;
  rec.start = Clock::now();
  auto encoded =
      cs::encode_window(*in_.phi, in_.sources[source].raw_mv, sig::AdcConfig{}, false);
  auto window = make_window(in_, source, seq, std::move(encoded.measurements));
  const auto encoded_at = Clock::now();
  rec.encode_us = std::chrono::duration<double, std::micro>(encoded_at - rec.start).count();
  tracer_.record(SpanName::kNodeEncode, seq, parent, rec.start, encoded_at);
  if (client_->submit_pipelined(std::move(window))) {
    unflushed_.push_back(seq);
    ++in_flight_;
  } else {
    records_[seq].state = State::kFailed;
    fail("submit: window " + std::to_string(seq) + " lost its connection");
  }
  tracer_.record(SpanName::kSubmit, seq, parent, encoded_at);
}

void Session::flush(std::int64_t parent) {
  if (unflushed_.empty()) return;
  const auto t0 = tracer_.now();
  const auto tickets = client_->flush_submits();
  tracer_.record(SpanName::kFlush, unflushed_.front(), parent, t0);
  if (tickets.size() != unflushed_.size()) {
    fail("flush_submits: " + std::to_string(tickets.size()) + " tickets for " +
         std::to_string(unflushed_.size()) + " windows");
  }
  for (std::size_t i = 0; i < std::min(tickets.size(), unflushed_.size()); ++i) {
    WindowRecord& rec = records_[unflushed_[i]];
    if (rec.state != State::kStaged) continue;  // Already polled back.
    if (tickets[i].has_value()) {
      rec.state = State::kAccepted;
    } else {
      rec.state = State::kFailed;
      --in_flight_;
      fail("flush_submits: window " + std::to_string(unflushed_[i]) + " was not acknowledged");
    }
  }
  unflushed_.clear();
}

std::size_t Session::poll_all(std::int64_t parent) {
  std::size_t received = 0;
  for (;;) {
    const auto t0 = tracer_.now();
    auto result = client_->poll();
    tracer_.record(SpanName::kPoll, polls, parent, t0);
    ++polls;
    if (!result) {
      ++empty_polls;
      return received;
    }
    on_result(std::move(*result), Clock::now());
    ++received;
  }
}

void Session::on_result(host::WindowResult&& result, Clock::time_point now) {
  const std::uint32_t seq = result.window_index;
  if (seq >= records_.size()) {
    fail("result for window " + std::to_string(seq) + ", which was never submitted");
    return;
  }
  WindowRecord& rec = records_[seq];
  if (rec.state != State::kStaged && rec.state != State::kAccepted) {
    fail("duplicate or unexpected result for window " + std::to_string(seq));
    return;
  }
  rec.state = State::kReceived;
  --in_flight_;
  rec.received = now;
  rec.e2e_ms = result.e2e_ms;
  rec.solve_ms = result.latency_ms;
  const Source& src = in_.sources[rec.source];
  if (opts_.corrupt_result && !corrupted_ && rec.phase != Phase::kWarmup &&
      !result.signal.empty()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &result.signal[0], sizeof bits);
    bits ^= 1;
    std::memcpy(&result.signal[0], &bits, sizeof bits);
    corrupted_ = true;
  }
  if (result.patient_id != src.patient) {
    fail("window " + std::to_string(seq) + ": result carries the wrong patient id");
  }
  if (!same_bits(result.signal, src.expected)) {
    fail("bit-exactness: window " + std::to_string(seq) + " (patient " +
         std::to_string(src.patient) + ") differs from the serial reference");
  }
  rec.snr_db = cs::reconstruction_snr_db(src.reference, result.signal);
  client_pool_->recycle(std::move(result));
}

void Session::drain_outstanding(Clock::time_point hard_stop) {
  while (in_flight_ > 0) {
    flush(-1);
    if (poll_all(-1) > 0) continue;
    if (Clock::now() > hard_stop) {
      fail("drain: " + std::to_string(in_flight_) + " windows outstanding at the time limit");
      return;
    }
    std::this_thread::sleep_for(kPollInterval);
  }
}

void Session::run_fixed_rate(double seconds) {
  // Poisson arrivals from the seed: a window is due when its node finishes
  // acquiring it, whether or not the client is ready.
  sig::Rng rng(opts_.seed ^ 0x5EED0A11CEULL);
  std::vector<double> due_s;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / w_.rate_hz;
    if (t >= seconds) break;
    due_s.push_back(t);
  }

  const auto t0 = Clock::now();
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const double cpu0 = cpu_seconds();
  std::size_t next = 0;
  auto tick = t0;
  for (std::uint64_t iteration = 0; next < due_s.size(); ++iteration) {
    const auto loop = tracer_.open(SpanName::kLoop, iteration, -1);
    const auto now = Clock::now();
    while (next < due_s.size() && at(due_s[next]) <= now) {
      submit(in_.source_for(next_traffic_++), Phase::kFixedRate, at(due_s[next]), loop);
      ++next;
    }
    flush(loop);
    poll_all(loop);
    tracer_.close(loop);
    if (opts_.stall_generator && iteration % kStallEvery == kStallEvery - 1) {
      std::this_thread::sleep_for(kStall);
    }
    tick = std::max(tick + kPollInterval, Clock::now());
    std::this_thread::sleep_until(tick);
  }
  drain_outstanding(Clock::now() + std::chrono::seconds(20));
  fixed_cpu_s = cpu_seconds() - cpu0;
}

void Session::run_capacity(double seconds) {
  // Shards are probed one at a time: two solving workers that share a
  // physical core run at unpredictable speed on a shared host, which made
  // whole-fleet probes bimodal.  The fleet's capacity at the traffic mix is
  // then set by the shard that saturates first: min over shards of its
  // rate divided by its share of the patients.
  std::vector<std::vector<std::uint32_t>> owned(w_.shards);
  for (std::uint32_t p = 0; p < in_.by_patient.size(); ++p) {
    owned[client_->owner(p)].push_back(p);
  }
  std::size_t probed = 0;
  for (const auto& patients : owned) probed += !patients.empty();
  capacity_win_per_s = 0.0;
  std::vector<double> latency;
  for (const auto& patients : owned) {
    if (patients.empty()) continue;
    const double rate = probe_capacity(patients, seconds / static_cast<double>(probed));
    const double share =
        static_cast<double>(patients.size()) / static_cast<double>(in_.by_patient.size());
    if (capacity_win_per_s == 0.0 || rate / share < capacity_win_per_s) {
      capacity_win_per_s = rate / share;
    }
  }
  for (const auto& rec : records_) {
    if (rec.phase == Phase::kCapacity && rec.state == State::kReceived) {
      latency.push_back(ms_between(rec.due, rec.received));
    }
  }
  const double p99 = percentile(latency, 0.99);
  if (p99 > deadline_ms(w_)) {
    fail("capacity probe: p99 " + std::to_string(p99) + " ms exceeds the " +
         std::to_string(deadline_ms(w_)) + " ms deadline");
  }
}

double Session::probe_capacity(const std::vector<std::uint32_t>& patients, double seconds) {
  // Closed loop: keep capacity_inflight windows of these patients
  // outstanding, so the backlog is bounded by construction and the
  // completion rate is the shard's.  The first quarter warms the queue; the
  // rest is cut into slices and the median slice rate is reported, so one
  // stall does not set the figure.
  constexpr int kSlices = 12;
  const std::size_t first = records_.size();
  const auto t0 = Clock::now();
  const auto span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const auto measure_from = t0 + span / 4;
  const auto slice = (t0 + span - measure_from) / kSlices;
  const auto t_end = measure_from + slice * kSlices;
  std::uint64_t next = 0;
  for (std::uint64_t iteration = 0; Clock::now() < t_end; ++iteration) {
    const auto loop = tracer_.open(SpanName::kLoop, iteration, -1);
    while (in_flight_ < w_.capacity_inflight) {
      const auto& windows = in_.by_patient[patients[next % patients.size()]];
      submit(windows[(next / patients.size()) % windows.size()], Phase::kCapacity,
             Clock::now(), loop);
      ++next;
    }
    flush(loop);
    const std::size_t received = poll_all(loop);
    tracer_.close(loop);
    if (received == 0) std::this_thread::sleep_for(kPollInterval);
  }
  drain_outstanding(Clock::now() + std::chrono::seconds(20));

  std::vector<double> per_slice(kSlices, 0.0);
  for (std::size_t i = first; i < records_.size(); ++i) {
    const auto& rec = records_[i];
    if (rec.state == State::kReceived && rec.received >= measure_from && rec.received < t_end) {
      per_slice[static_cast<std::size_t>((rec.received - measure_from) / slice)] += 1.0;
    }
  }
  const double slice_s = std::chrono::duration<double>(slice).count();
  std::fprintf(stderr, "# capacity probe: %zu patients, slice rates win/s min %.0f median %.0f max %.0f\n",
               patients.size(), *std::min_element(per_slice.begin(), per_slice.end()) / slice_s,
               median(per_slice) / slice_s,
               *std::max_element(per_slice.begin(), per_slice.end()) / slice_s);
  return median(per_slice) / slice_s;
}

void Session::reshard_to(std::size_t spare, bool grow) {
  std::vector<net::ShardEndpoint> target;
  for (std::size_t i = 0; i < w_.shards; ++i) target.push_back(fleet_->endpoint(i));
  if (grow) target.push_back(fleet_->endpoint(w_.shards + spare));
  std::vector<net::ShardEndpoint> before;
  for (std::uint32_t p = 0; p < in_.by_patient.size(); ++p) {
    before.push_back(topology_[client_->owner(p)]);
  }
  const auto t0 = Clock::now();
  const bool ok = client_->set_topology(target);
  const auto t1 = Clock::now();
  tracer_.record(SpanName::kReshard, spare, -1, t0, t1);
  std::size_t moved = 0;
  for (std::uint32_t p = 0; p < in_.by_patient.size(); ++p) {
    moved += !(target[client_->owner(p)] == before[p]);
  }
  reshard_ms.push_back(ms_between(t0, t1));
  moved_patients.push_back(static_cast<double>(moved));
  topology_ = std::move(target);
  if (!ok) fail("set_topology failed");
}

void Session::run_idle_reshards() {
  // The spares start here, outside the timed set-up.  No traffic reaches a
  // spare, so its counters stay zero and it may rejoin without double
  // counting in the fleet aggregate.
  if (!fleet_->start(kSpareShards, engine_cfg_, fixed_scale_)) {
    fail("reshard: a spare shard server failed to start");
    return;
  }
  for (std::size_t cycle = 0; cycle < 2 * kSpareShards; ++cycle) {
    reshard_to(cycle % kSpareShards, true);
    reshard_to(cycle % kSpareShards, false);
  }
}

void Session::finish() {
  flush(-1);
  snapshot = client_->aggregate_snapshot();
  const std::uint64_t shed = snapshot.shed_routine + snapshot.shed_urgent;
  // Rejected windows are never submitted, so they sit outside the identity.
  if (snapshot.submitted != snapshot.completed + shed + snapshot.lost) {
    fail("conservation: submitted " + std::to_string(snapshot.submitted) + " != completed " +
         std::to_string(snapshot.completed) + " + shed " + std::to_string(shed) + " + lost " +
         std::to_string(snapshot.lost));
  }
  std::uint64_t failed = 0, received = 0;
  for (const auto& rec : records_) {
    failed += rec.state == State::kFailed;
    received += rec.state == State::kReceived;
  }
  if (records_.size() - failed != snapshot.submitted + snapshot.rejected ||
      received != snapshot.completed) {
    fail("accounting: client saw " + std::to_string(records_.size()) + " attempted, " +
         std::to_string(failed) + " failed, " + std::to_string(received) +
         " received; fleet reports " + std::to_string(snapshot.submitted) + " submitted, " +
         std::to_string(snapshot.rejected) + " rejected, " +
         std::to_string(snapshot.completed) + " completed");
  }

  pools = client_pool_->stats();
  std::vector<double> solve_ms;
  for (const auto& rec : records_) {
    if (rec.state == State::kReceived) solve_ms.push_back(rec.solve_ms);
  }
  const double measured = median(solve_ms);
  const auto m = static_cast<std::uint32_t>(in_.phi->rows());
  const auto n = static_cast<std::uint32_t>(in_.phi->cols());
  double err = 0.0;
  for (std::size_t i = 0; i < fleet_->size(); ++i) {
    add(pools, fleet_->pool_stats(i));
    const auto slo = fleet_->engine(i).slo().snapshot();
    grouped_windows += slo.grouped_windows;
    engine_completed += slo.completed;
    if (i < w_.shards && measured > 0.0) {
      err += std::abs(fleet_->engine(i).solve_estimate_ms(m, n) - measured) / measured;
    }
  }
  cost_model_err = err / static_cast<double>(w_.shards);
}

}  // namespace fleetbench
