#include "net/routing_client.hpp"

#include <algorithm>
#include <cerrno>
#include <thread>
#include <utility>

#include "host/reconstruction_fabric.hpp"

namespace wbsn::net {

namespace {
constexpr std::size_t kRecvChunk = 64 * 1024;
/// Results requested per POLL_MANY.
constexpr std::uint32_t kPollBatch = 64;

/// The POLL_MANY frame, encoded once: it never changes.
const std::vector<std::uint8_t>& poll_frame() {
  static const std::vector<std::uint8_t> frame = [] {
    std::vector<std::uint8_t> buf;
    encode_poll_many(buf, kPollBatch);
    return buf;
  }();
  return frame;
}

void accumulate(SnapshotPayload& into, const SnapshotPayload& s) {
  into.submitted += s.submitted;
  into.completed += s.completed;
  into.retrieved += s.retrieved;
  into.shed_routine += s.shed_routine;
  into.shed_urgent += s.shed_urgent;
  into.rejected += s.rejected;
  into.deadline_violations += s.deadline_violations;
  into.unsolved += s.unsolved;
  into.ready += s.ready;
  into.lost += s.lost;
}
}  // namespace

RoutingClient::RoutingClient(RoutingClientConfig cfg) : cfg_(std::move(cfg)) {}

RoutingClient::~RoutingClient() { shutdown(false); }

bool RoutingClient::connect(std::vector<ShardEndpoint> shards) {
  shutdown(false);
  conns_.clear();
  epoch_ = 0;
  ring_history_.clear();
  patients_.clear();
  pending_.clear();
  retired_ = {};
  pipeline_submits_.clear();
  cr_hints_.clear();
  shard_advisory_.clear();
  hints_epoch_ = ~std::uint64_t{0};
  for (auto& ep : shards) {
    auto conn = std::make_unique<Conn>();
    conn->endpoint = std::move(ep);
    conn->index = conns_.size();
    if (!ensure_connected(*conn)) return false;
    conns_.push_back(std::move(conn));
  }
  ring_history_.emplace_back(conns_.size(), host::kVnodesPerShard);
  return true;
}

std::size_t RoutingClient::live_shard_count() const {
  std::size_t live = 0;
  for (const auto& conn : conns_) {
    if (conn && !conn->failed) ++live;
  }
  return live;
}

bool RoutingClient::shard_failed(std::size_t shard) const {
  return shard < conns_.size() && conns_[shard] && conns_[shard]->failed;
}

bool RoutingClient::fail_shard(std::size_t shard) {
  if (shard >= conns_.size() || !conns_[shard] || conns_[shard]->failed) return false;
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (i != shard && conns_[i] && !conns_[i]->failed) survivors.push_back(i);
  }
  if (survivors.empty()) return false;  // Nowhere to re-home the patients.
  Conn& conn = *conns_[shard];
  conn.fd.reset();
  // Unacked pipelined windows resolve to nullopt at the next
  // flush_submits() and are never retried: the dead shard may have
  // admitted them, and a resubmit elsewhere could double-count.
  fail_pipeline(conn);
  conn.failed = true;
  // The dead shard cannot surrender a final snapshot; the client's own
  // mirrors stand in.  Every acknowledged window is accounted exactly
  // once: polled back in time -> completed, destroyed with the shard ->
  // lost.  (Windows the shard shed before dying are indistinguishable
  // from lost windows out here, and are counted lost.)  Its latency
  // histograms and per-patient SLO history die with it.
  SnapshotPayload final;
  final.submitted = conn.acked_submits;
  final.completed = conn.retrieved;
  final.retrieved = conn.retrieved;
  final.rejected = conn.rejected_seen;
  final.lost =
      conn.acked_submits >= conn.retrieved ? conn.acked_submits - conn.retrieved : 0;
  accumulate(retired_, final);
  // Failover epoch: a subset ring over the survivors, no drain/extract
  // handshake (the peer is gone).  Virtual-node positions depend only on
  // (shard, replica), so deleting the dead shard's points moves exactly
  // its patients; every survivor keeps its index, which keeps composite
  // tickets from every prior epoch composable.
  ring_history_.emplace_back(survivors, host::kVnodesPerShard);
  ++epoch_;
  return true;
}

bool RoutingClient::probe_health(std::size_t shard) {
  if (shard >= conns_.size() || !conns_[shard] || conns_[shard]->failed) return false;
  Conn& conn = *conns_[shard];
  if (!sync_pipeline(conn)) return false;
  std::vector<std::uint8_t> buf;
  const std::uint64_t nonce = ++conn.health_nonce;
  encode_health(buf, nonce);
  if (!send_request(conn, buf, /*may_retry=*/true)) return false;
  // Tighten the receive deadline for the probe itself: io_timeout_ms is
  // sized for verbs that legitimately wait (drains); "dead or deadlined"
  // must be decidable much faster.
  const bool tighten = cfg_.health_probe_timeout_ms > 0;
  if (tighten) (void)set_recv_timeout(conn.fd.get(), cfg_.health_probe_timeout_ms);
  std::vector<std::uint8_t> frame;
  FrameView view;
  const bool got_frame = read_frame(conn, frame, view);
  if (tighten && conn.fd.valid()) (void)set_recv_timeout(conn.fd.get(), cfg_.io_timeout_ms);
  if (!got_frame) return false;
  HealthAckPayload ack;
  if (view.type != FrameType::kHealthAck || !decode_health_ack(view.payload, ack) ||
      ack.nonce != nonce) {
    conn.fd.reset();  // Wrong answer or a stale echo: desynchronized.
    return false;
  }
  return true;
}

std::vector<std::size_t> RoutingClient::check_health() {
  std::vector<std::size_t> dead;
  for (std::size_t shard = 0; shard < conns_.size(); ++shard) {
    if (!conns_[shard] || conns_[shard]->failed) continue;
    if (probe_health(shard)) continue;
    dead.push_back(shard);
    if (cfg_.auto_failover) (void)fail_shard(shard);
  }
  return dead;
}

std::size_t RoutingClient::owner(std::uint32_t patient_id) const {
  return ring_history_[epoch_].owner(patient_id);
}

bool RoutingClient::ensure_connected(Conn& conn) {
  if (conn.fd.valid()) return true;
  return reconnect(conn);
}

int RoutingClient::backoff_delay_ms(int attempt, int base_ms, int max_ms,
                                    std::uint64_t seed) {
  if (attempt <= 0 || base_ms <= 0) return 0;
  if (max_ms < base_ms) max_ms = base_ms;
  // Saturating doubling: base·2^(attempt-1), clamped at the cap *inside*
  // the loop so the product can never overflow int however large
  // reconnect_attempts is (the original bug: unbounded `backoff_ms *= 2`).
  std::int64_t delay = base_ms;
  for (int i = 1; i < attempt && delay < max_ms; ++i) delay *= 2;
  delay = std::min<std::int64_t>(delay, max_ms);
  // Deterministic jitter, up to +25%: a fleet of coordinators retrying one
  // recovering shard de-synchronizes (no thundering herd), yet any given
  // (seed, attempt) schedule replays exactly — what the unit test pins.
  const std::uint64_t h = host::splitmix64(seed ^ static_cast<std::uint64_t>(attempt));
  delay += static_cast<std::int64_t>(h % (static_cast<std::uint64_t>(delay) / 4 + 1));
  return static_cast<int>(delay);
}

bool RoutingClient::reconnect(Conn& conn) {
  if (conn.failed) return false;  // Declared dead: never resurrected.
  conn.fd.reset();
  conn.rx.clear();
  conn.polls_owed = 0;  // Their answers died with the old connection.
  // Pipelined submits whose ACK was outstanding on the dead connection
  // are lost, never retried (a retry could double-submit): their tickets
  // resolve to nullopt at the next flush_submits().
  fail_pipeline(conn);
  // Jitter seed: stable per (shard slot, endpoint), distinct across a
  // fleet of clients pointed at different shards.
  const std::uint64_t seed = host::splitmix64(
      (static_cast<std::uint64_t>(conn.index) << 16) ^ conn.endpoint.port);
  for (int attempt = 0; attempt <= cfg_.reconnect_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_delay_ms(
          attempt, cfg_.reconnect_backoff_ms, cfg_.reconnect_backoff_max_ms, seed)));
    }
    Fd fd = tcp_connect(conn.endpoint.host, conn.endpoint.port, cfg_.connect_timeout_ms,
                        cfg_.io_timeout_ms);
    if (!fd.valid()) continue;
    conn.fd = std::move(fd);
    // Version negotiation before anything else on the connection.
    std::vector<std::uint8_t> buf;
    encode_hello(buf, HelloPayload{kWireVersion, kWireVersion});
    if (!send_all(conn.fd.get(), buf.data(), buf.size())) {
      conn.fd.reset();
      continue;
    }
    std::vector<std::uint8_t> frame;
    FrameView view;
    std::uint8_t version = 0;
    if (!read_frame(conn, frame, view) || view.type != FrameType::kHelloAck ||
        !decode_hello_ack(view.payload, version) || version != kWireVersion) {
      conn.fd.reset();
      continue;
    }
    return true;
  }
  return false;
}

bool RoutingClient::send_request(Conn& conn, const std::vector<std::uint8_t>& buf,
                                 bool may_retry) {
  if (!ensure_connected(conn)) return false;
  // Scripted teardown at this exact frame boundary (tests only): the
  // connection dies before the frame reaches the wire, driving the same
  // failure paths a real mid-stream crash does — deterministically.
  if (cfg_.fault_inject && cfg_.fault_inject(conn.index, conn.frames_sent)) {
    conn.fd.reset();
  }
  ++conn.frames_sent;
  if (conn.fd.valid() && send_all(conn.fd.get(), buf.data(), buf.size())) return true;
  if (!may_retry) {
    conn.fd.reset();
    return false;
  }
  return reconnect(conn) && send_all(conn.fd.get(), buf.data(), buf.size());
}

bool RoutingClient::read_frame(Conn& conn, std::vector<std::uint8_t>& frame,
                               FrameView& view) {
  if (!conn.fd.valid()) return false;
  for (;;) {
    FrameView peek;
    const auto status = peek_frame(conn.rx, peek);
    if (status == FrameStatus::kOk) {
      if (peek.type == FrameType::kResultBatch && conn.polls_owed > 0) {
        // An armed poll's answer precedes whatever this read waits for.
        const bool ok = absorb_results(conn, peek);
        conn.rx.erase(conn.rx.begin(), conn.rx.begin() + peek.frame_bytes);
        if (!ok) {
          conn.fd.reset();
          return false;
        }
        continue;
      }
      frame.assign(conn.rx.begin(), conn.rx.begin() + peek.frame_bytes);
      conn.rx.erase(conn.rx.begin(), conn.rx.begin() + peek.frame_bytes);
      // Re-peek against the stable copy so the view outlives conn.rx.
      return peek_frame(frame, view) == FrameStatus::kOk;
    }
    if (status != FrameStatus::kNeedMore) {
      conn.fd.reset();  // Corrupt or desynchronized stream; resync via reconnect.
      return false;
    }
    std::uint8_t chunk[kRecvChunk];
    const long n = recv_some(conn.fd.get(), chunk, sizeof(chunk));
    if (n <= 0) {
      conn.fd.reset();
      return false;
    }
    conn.rx.insert(conn.rx.end(), chunk, chunk + n);
  }
}

void RoutingClient::fail_pipeline(Conn& conn) {
  while (!conn.pending_submits.empty()) {
    auto& record = pipeline_submits_[conn.pending_submits.front()];
    conn.pending_submits.pop_front();
    record.resolved = true;
    record.ticket = std::nullopt;
  }
  conn.staged_bodies.clear();
  conn.staged_count = 0;
  conn.outstanding_counts.clear();
}

bool RoutingClient::harvest_ack(Conn& conn) {
  if (conn.outstanding_counts.empty()) return true;
  std::vector<std::uint8_t> frame;
  FrameView view;
  std::vector<SubmitBatchAckEntry> entries;
  if (!read_frame(conn, frame, view) || view.type != FrameType::kSubmitBatchAck ||
      !decode_submit_batch_ack(view.payload, entries) ||
      entries.size() != conn.outstanding_counts.front() ||
      entries.size() > conn.pending_submits.size()) {
    conn.fd.reset();
    fail_pipeline(conn);
    return false;
  }
  conn.outstanding_counts.pop_front();
  for (const auto& entry : entries) {
    // FIFO pairing: ACK entries arrive in submit order, exactly the order
    // pending_submits was filled — composition deferred until right here.
    auto& record = pipeline_submits_[conn.pending_submits.front()];
    conn.pending_submits.pop_front();
    record.resolved = true;
    if (entry.accepted) {
      ++conn.acked_submits;
      record.ticket = host::ReconstructionFabric::compose_ticket(record.epoch, record.shard,
                                                                 entry.local_ticket);
    } else {
      ++conn.rejected_seen;
    }
  }
  return true;
}

bool RoutingClient::seal_batch(Conn& conn) {
  if (conn.staged_count == 0) return true;
  if (!conn.fd.valid()) {
    fail_pipeline(conn);
    return false;
  }
  // Scatter-gather seal: the frame header + count prefix (final length —
  // known now), the staged bodies untouched, and the streaming-CRC
  // trailer go out in one sendmsg; the bodies are never re-assembled into
  // a contiguous frame.  thread_local staging keeps the steady state
  // allocation-free (the client is single-coordinator by contract).
  static thread_local std::vector<std::uint8_t> prefix;
  static thread_local std::vector<std::uint8_t> trailer;
  prefix.clear();
  trailer.clear();
  encode_submit_batch_prefix(prefix, kSubmitFlagBlocking, conn.staged_count,
                             conn.staged_bodies.size());
  encode_submit_batch_trailer(trailer, prefix, conn.staged_bodies);
  // This batch releases an armed poll (the shard answers it first), so a
  // fresh POLL_MANY rides behind the batch in the same write: a result
  // that completes after the ACK still finds a poll waiting for it.
  const bool rearm = conn.polls_owed > 0;
  const ConstBuf bufs[4] = {{prefix.data(), prefix.size()},
                            {conn.staged_bodies.data(), conn.staged_bodies.size()},
                            {trailer.data(), trailer.size()},
                            {poll_frame().data(), rearm ? poll_frame().size() : 0}};
  // The sealed batch is one send: one fault-hook boundary.
  if (cfg_.fault_inject && cfg_.fault_inject(conn.index, conn.frames_sent)) {
    conn.fd.reset();
  }
  ++conn.frames_sent;
  const bool sent = conn.fd.valid() && send_all_vec(conn.fd.get(), bufs, 4);
  conn.staged_bodies.clear();
  const auto batch_windows = static_cast<std::size_t>(conn.staged_count);
  conn.staged_count = 0;
  if (!sent) {
    conn.fd.reset();
    fail_pipeline(conn);
    return false;
  }
  conn.outstanding_counts.push_back(batch_windows);
  if (rearm) ++conn.polls_owed;
  // Bounded outgoing window: at most pipeline_depth unacknowledged frames
  // ride the wire; beyond that the submitter absorbs the shard's pace.
  while (conn.outstanding_counts.size() > cfg_.pipeline_depth) {
    if (!harvest_ack(conn)) return false;
  }
  return true;
}

bool RoutingClient::sync_pipeline(Conn& conn) {
  if (!seal_batch(conn)) return false;
  while (!conn.outstanding_counts.empty()) {
    if (!harvest_ack(conn)) return false;
  }
  return true;
}

void RoutingClient::stage(Conn& conn, host::CompressedWindow& window) {
  window.route_tag = epoch_;
  patients_.insert(window.patient_id);
  encode_submit_batch_entry(conn.staged_bodies, window, cfg_.wire);
  ++conn.staged_count;
  conn.pending_submits.push_back(pipeline_submits_.size());
  pipeline_submits_.push_back({epoch_, conn.index, false, std::nullopt});
}

bool RoutingClient::submit_pipelined(host::CompressedWindow&& window) {
  for (std::size_t hop = 0; hop <= conns_.size(); ++hop) {
    const std::size_t shard = owner(window.patient_id);
    Conn& conn = *conns_[shard];
    if (!ensure_connected(conn)) {
      // Unreachable after retries.  This window is still in hand (never
      // staged), so after a failover it re-routes loss-free; staged or
      // on-the-wire windows stay failed per the no-resubmit rule.
      if (cfg_.auto_failover && fail_shard(shard)) continue;
      pipeline_submits_.push_back({epoch_, shard, true, std::nullopt});
      return false;
    }
    stage(conn, window);
    if (cfg_.payload_pool) cfg_.payload_pool->recycle(std::move(window));
    if (conn.staged_count >= cfg_.submit_batch_windows) return seal_batch(conn);
    return true;
  }
  return false;
}

std::vector<std::optional<std::uint64_t>> RoutingClient::flush_submits() {
  for (auto& conn : conns_) {
    if (conn) (void)sync_pipeline(*conn);
  }
  std::vector<std::optional<std::uint64_t>> out;
  out.reserve(pipeline_submits_.size());
  for (const auto& record : pipeline_submits_) {
    out.push_back(record.resolved ? record.ticket : std::nullopt);
  }
  pipeline_submits_.clear();
  return out;
}

std::optional<std::uint64_t> RoutingClient::submit(host::CompressedWindow window) {
  // The loop re-routes after a failover (at most once per shard that can
  // die); without auto_failover it runs exactly one iteration.
  for (std::size_t hop = 0; hop <= conns_.size(); ++hop) {
    const std::size_t shard = owner(window.patient_id);
    Conn& conn = *conns_[shard];
    // Settle the shard's earlier pipelined windows first, so the frame
    // sealed below carries this window alone and its record is the newest
    // in pipeline_submits_ — popped again once resolved, so flush_submits()
    // only ever reports submit_pipelined() calls.
    (void)sync_pipeline(conn);
    std::optional<std::uint64_t> ticket;
    if (ensure_connected(conn)) {
      stage(conn, window);
      (void)sync_pipeline(conn);
      ticket = pipeline_submits_.back().ticket;
      pipeline_submits_.pop_back();
    }
    if (ticket) {
      if (cfg_.payload_pool) cfg_.payload_pool->recycle(std::move(window));
      return ticket;
    }
    // No ACK arrived, so this window never entered the shard's mirror:
    // re-routing it to the survivor that now owns the patient cannot
    // double-count, and the dead shard can never answer for it again.
    if (!cfg_.auto_failover || !fail_shard(shard)) return std::nullopt;
  }
  return std::nullopt;
}

std::uint64_t RoutingClient::compose_result_ticket(const host::WindowResult& result) {
  // route_tag carries the submission epoch; that epoch's ring names the
  // shard index the window was actually submitted to, even if the shard's
  // index (or existence) changed since.
  const std::uint32_t e = result.route_tag;
  const std::size_t shard =
      e < ring_history_.size() ? ring_history_[e].owner(result.patient_id) : 0;
  return host::ReconstructionFabric::compose_ticket(e, shard, result.ticket);
}

bool RoutingClient::absorb_results(Conn& conn, const FrameView& view) {
  --conn.polls_owed;
  std::vector<host::WindowResult> results;
  if (!decode_result_batch(view.payload, results, cfg_.payload_pool.get())) return false;
  for (auto& result : results) {
    result.ticket = compose_result_ticket(result);
    pending_.push_back(std::move(result));
    ++conn.retrieved;
  }
  return true;
}

bool RoutingClient::collect(Conn& conn) {
  (void)sync_pipeline(conn);
  std::uint8_t chunk[kRecvChunk];
  while (conn.fd.valid() && conn.polls_owed > 0) {
    FrameView view;
    const auto status = peek_frame(conn.rx, view);
    if (status == FrameStatus::kNeedMore) {
      const long n = recv_some(conn.fd.get(), chunk, sizeof(chunk), /*wait=*/false);
      if (n > 0) {
        conn.rx.insert(conn.rx.end(), chunk, chunk + n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;  // Not answered yet.
      conn.fd.reset();  // Orderly close or hard error: the shard is gone.
      return false;
    }
    // The pipeline is synced, so only armed polls' answers are owed here.
    if (status != FrameStatus::kOk || view.type != FrameType::kResultBatch ||
        !absorb_results(conn, view)) {
      conn.fd.reset();
      return false;
    }
    conn.rx.erase(conn.rx.begin(), conn.rx.begin() + view.frame_bytes);
  }
  // Arm only while the shard holds windows not yet retrieved, and only one.
  if (conn.acked_submits <= conn.retrieved || (conn.fd.valid() && conn.polls_owed > 0)) {
    return true;
  }
  if (!send_request(conn, poll_frame(), /*may_retry=*/true)) return false;
  ++conn.polls_owed;
  return true;
}

std::optional<host::WindowResult> RoutingClient::poll() {
  if (pending_.empty()) {
    for (std::size_t shard = 0; shard < conns_.size(); ++shard) {
      Conn& conn = *conns_[shard];
      if (conn.failed) continue;
      if (!collect(conn) && cfg_.auto_failover) (void)fail_shard(shard);
    }
  }
  if (pending_.empty()) return std::nullopt;
  auto result = std::move(pending_.front());
  pending_.pop_front();
  return result;
}

std::vector<host::WindowResult> RoutingClient::drain() {
  std::vector<host::WindowResult> all;
  for (;;) {
    // One write per live shard sweeps its ready results and snapshots
    // what is left; the fleet is quiesced when no shard has anything left.
    bool quiesced = true;
    for (std::size_t shard = 0; shard < conns_.size(); ++shard) {
      Conn& conn = *conns_[shard];
      if (conn.failed) continue;
      SnapshotPayload snap;
      if (!fetch_snapshot(conn, snap, /*sweep=*/true)) {
        if (cfg_.auto_failover) (void)fail_shard(shard);
        continue;  // Unreachable: nothing left to wait on there.
      }
      if (snap.unsolved > 0 || snap.ready > 0) quiesced = false;
    }
    while (!pending_.empty()) {
      all.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    if (quiesced) return all;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool RoutingClient::fetch_snapshot(Conn& conn, SnapshotPayload& out, bool sweep) {
  (void)sync_pipeline(conn);
  std::vector<std::uint8_t> buf;
  // The snapshot releases an armed poll, so a sweep needs no second one.
  const bool arm = sweep && (!conn.fd.valid() || conn.polls_owed == 0);
  if (arm) buf = poll_frame();
  encode_snapshot_request(buf);
  if (!send_request(conn, buf, /*may_retry=*/true)) return false;
  if (arm) ++conn.polls_owed;
  std::vector<std::uint8_t> frame;
  FrameView view;
  return read_frame(conn, frame, view) && view.type == FrameType::kSnapshot &&
         decode_snapshot(view.payload, out);
}

SnapshotPayload RoutingClient::aggregate_snapshot() {
  // retired_ carries both orderly retirements (their exact final
  // snapshots) and crash failovers (the client-side mirrors, with the
  // unpollable remainder under .lost).
  SnapshotPayload sum = retired_;
  for (auto& conn : conns_) {
    if (conn->failed) continue;
    SnapshotPayload snap;
    if (fetch_snapshot(*conn, snap)) accumulate(sum, snap);
  }
  return sum;
}

bool RoutingClient::refresh_cr_hints(std::uint32_t max_entries_per_shard) {
  cr_hints_.clear();
  shard_advisory_.assign(conns_.size(), 0.0);
  hints_epoch_ = epoch_;
  bool ok = true;
  for (std::size_t shard = 0; shard < conns_.size(); ++shard) {
    Conn& conn = *conns_[shard];
    if (conn.failed) continue;
    (void)sync_pipeline(conn);  // Responses are per-connection ordered.
    std::vector<std::uint8_t> buf;
    encode_cr_hint(buf, epoch_, max_entries_per_shard);
    if (!send_request(conn, buf, /*may_retry=*/true)) {
      ok = false;
      continue;
    }
    std::vector<std::uint8_t> frame;
    FrameView view;
    CrHintAckPayload ack;
    if (!read_frame(conn, frame, view) || view.type != FrameType::kCrHintAck ||
        !decode_cr_hint_ack(view.payload, ack)) {
      conn.fd.reset();
      ok = false;
      continue;
    }
    if (ack.epoch != epoch_) {
      // Answered for an epoch we no longer route by: drop it rather than
      // risk steering a node through the wrong owner.
      ok = false;
      continue;
    }
    shard_advisory_[shard] = ack.advisory_cr_centi / 100.0;
    for (const auto& entry : ack.entries) {
      cr_hints_[entry.patient_id] = entry.cr_centi / 100.0;
    }
  }
  return ok;
}

std::optional<double> RoutingClient::cr_hint(std::uint32_t patient_id) const {
  if (conns_.empty() || hints_epoch_ != epoch_) return std::nullopt;
  if (auto it = cr_hints_.find(patient_id);
      it != cr_hints_.end() && it->second > 0.0) {
    return it->second;
  }
  const double advisory = shard_advisory_[owner(patient_id)];
  if (advisory > 0.0) return advisory;
  return std::nullopt;
}

std::optional<host::SloTrackerState> RoutingClient::patient_slo_state(
    std::uint32_t patient_id) {
  Conn& conn = *conns_[owner(patient_id)];
  (void)sync_pipeline(conn);
  std::vector<std::uint8_t> buf;
  encode_patient_frame(buf, FrameType::kExtractSlo, patient_id);
  if (!send_request(conn, buf, /*may_retry=*/false)) return std::nullopt;
  std::vector<std::uint8_t> frame;
  FrameView view;
  SloStatePayload slo;
  if (!read_frame(conn, frame, view) || view.type != FrameType::kSloState ||
      !decode_slo_state(view.payload, slo)) {
    return std::nullopt;
  }
  // Hand the history straight back so the shard's breakdown keeps it; the
  // caller gets a copy.
  buf.clear();
  encode_slo_state(buf, FrameType::kAdoptSlo, slo);
  if (send_request(conn, buf, /*may_retry=*/false)) {
    bool adopted = false;
    if (read_frame(conn, frame, view) && view.type == FrameType::kAdoptAck) {
      (void)decode_adopt_ack(view.payload, adopted);
    }
  }
  return slo.present ? std::optional(slo.state) : std::nullopt;
}

bool RoutingClient::drain_and_move_patient(std::uint32_t patient_id, Conn& from, Conn& to) {
  std::vector<std::uint8_t> buf;
  std::vector<std::uint8_t> frame;
  FrameView view;

  // 1. Quiesce the patient on the old owner (the epoch already flipped, so
  //    no new windows can race in behind the drain).
  encode_patient_frame(buf, FrameType::kDrainPatient, patient_id);
  if (!send_request(from, buf, /*may_retry=*/false)) return false;
  std::uint32_t echoed = 0;
  if (!read_frame(from, frame, view) || view.type != FrameType::kDrainDone ||
      !decode_patient_frame(view.payload, echoed) || echoed != patient_id) {
    return false;
  }

  // 2. Move the SLO history: extract (exchange(0) server-side) and adopt.
  buf.clear();
  encode_patient_frame(buf, FrameType::kExtractSlo, patient_id);
  if (!send_request(from, buf, /*may_retry=*/false)) return false;
  SloStatePayload slo;
  if (!read_frame(from, frame, view) || view.type != FrameType::kSloState ||
      !decode_slo_state(view.payload, slo)) {
    return false;
  }
  if (!slo.present) return true;  // Never tracked: nothing to carry over.
  buf.clear();
  encode_slo_state(buf, FrameType::kAdoptSlo, slo);
  if (!send_request(to, buf, /*may_retry=*/false)) return false;
  bool adopted = false;
  return read_frame(to, frame, view) && view.type == FrameType::kAdoptAck &&
         decode_adopt_ack(view.payload, adopted);
}

bool RoutingClient::retire(Conn& conn) {
  // Pull out every result still parked on the shard (all its patients were
  // just drained, so only the completion list can be non-empty), fold its
  // final counters into the retired accumulator, and dismiss it.
  for (;;) {
    SnapshotPayload snap;
    if (!fetch_snapshot(conn, snap, /*sweep=*/true)) return false;
    if (snap.unsolved == 0 && snap.ready == 0) {
      accumulate(retired_, snap);
      break;
    }
  }
  std::vector<std::uint8_t> buf;
  encode_bye(buf);
  if (send_request(conn, buf, /*may_retry=*/false)) {
    std::vector<std::uint8_t> frame;
    FrameView view;
    (void)read_frame(conn, frame, view);  // BYE_ACK (best effort).
  }
  conn.fd.reset();
  return true;
}

bool RoutingClient::set_topology(std::vector<ShardEndpoint> shards) {
  // Outstanding pipelined submits belong to the closing epoch: settle
  // every ACK before the flip so their tickets compose against it.
  for (auto& conn : conns_) {
    if (conn) (void)sync_pipeline(*conn);
  }
  const host::HashRing old_ring = ring_history_[epoch_];
  // The previous epoch's index -> connection table, captured before the
  // container shuffle below (the Conn objects themselves don't move, so
  // raw pointers stay valid while unique_ptrs change vectors).
  std::vector<Conn*> old_table;
  old_table.reserve(conns_.size());
  for (auto& c : conns_) old_table.push_back(c.get());

  // Build the next epoch's connection table, reusing live connections for
  // endpoints that survive (matched by host:port) so their engines keep
  // their backlogs and completion lists.  A *failed* slot never matches:
  // if a crashed shard's endpoint reappears (daemon restarted), it is a
  // brand-new shard with a fresh connection and clean mirrors — its
  // predecessor's losses are already folded into retired_.
  std::vector<std::unique_ptr<Conn>> next;
  next.reserve(shards.size());
  for (auto& ep : shards) {
    auto it = std::find_if(conns_.begin(), conns_.end(), [&](const auto& c) {
      return c && !c->failed && c->endpoint == ep;
    });
    if (it != conns_.end()) {
      next.push_back(std::move(*it));
    } else {
      auto conn = std::make_unique<Conn>();
      conn->endpoint = std::move(ep);
      if (!ensure_connected(*conn)) return false;
      next.push_back(std::move(conn));
    }
  }
  // Failed slots are dropped silently (already fully accounted); only
  // live leavers go through the synchronous retirement protocol.
  std::vector<std::unique_ptr<Conn>> leaving;
  for (auto& c : conns_) {
    if (c && !c->failed) leaving.push_back(std::move(c));
  }

  // Flip the routing epoch first — same ordering as the in-process
  // fabric's resize(): from here on nothing routes to a leaving shard and
  // every new submission is tagged with the new epoch, so each window's
  // route is decided by exactly one epoch.
  conns_ = std::move(next);
  for (std::size_t i = 0; i < conns_.size(); ++i) conns_[i]->index = i;
  ring_history_.emplace_back(conns_.size(), host::kVnodesPerShard);
  ++epoch_;

  // Migrate every patient whose owning *endpoint* changed: quiesce it on
  // the old owner, then move its SLO history.  An index shift that keeps
  // the endpoint needs no migration — the connection is the identity.
  bool ok = true;
  for (std::uint32_t patient : patients_) {
    Conn* from = old_table[old_ring.owner(patient)];
    Conn* to = conns_[owner(patient)].get();
    if (from == to) continue;
    if (!drain_and_move_patient(patient, *from, *to)) ok = false;
  }
  // Leaving shards are now empty of routed patients: pull their parked
  // results, fold their counters, dismiss them.
  for (auto& conn : leaving) {
    if (!retire(*conn)) ok = false;
  }
  return ok;
}

void RoutingClient::shutdown(bool send_bye) {
  for (auto& conn : conns_) {
    if (conn && conn->fd.valid()) (void)sync_pipeline(*conn);
  }
  if (send_bye) {
    std::vector<std::uint8_t> buf;
    encode_bye(buf);
    for (auto& conn : conns_) {
      if (!conn || !conn->fd.valid()) continue;
      if (send_all(conn->fd.get(), buf.data(), buf.size())) {
        std::vector<std::uint8_t> frame;
        FrameView view;
        (void)read_frame(*conn, frame, view);
      }
    }
  }
  for (auto& conn : conns_) {
    if (conn) conn->fd.reset();
  }
}

}  // namespace wbsn::net
