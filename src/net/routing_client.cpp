#include "net/routing_client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>
#include <utility>

namespace wbsn::net {

namespace {
constexpr std::size_t kRecvChunk = 64 * 1024;
/// Results requested per POLL_MANY.
constexpr std::uint32_t kPollBatch = 64;
/// Ceiling on one reconnect backoff sleep.  Uncapped doubling overflowed
/// int at high reconnect_attempts.
constexpr int kReconnectBackoffMaxMs = 2000;

/// The POLL_MANY frame, encoded once: it never changes.
const std::vector<std::uint8_t>& poll_frame() {
  static const std::vector<std::uint8_t> frame = [] {
    std::vector<std::uint8_t> buf;
    encode_poll_many(buf, kPollBatch);
    return buf;
  }();
  return frame;
}
}  // namespace

// --- SocketLink --------------------------------------------------------------

bool SocketLink::ensure_connected() { return fd_.valid() || reconnect(); }

bool SocketLink::reconnect() {
  fd_.reset();
  // Windows whose ACK was outstanding on the dead connection are lost,
  // never retried (a retry could double-submit).  What the old connection
  // did deliver is kept; the rest died with it.
  fail_pipeline();
  rx_.clear();
  polls_owed_ = 0;
  // Jitter seed: stable per (shard slot, endpoint), distinct across a
  // fleet of clients pointed at different shards.
  const std::uint64_t seed =
      host::splitmix64((static_cast<std::uint64_t>(index_) << 16) ^ endpoint_.port);
  for (int attempt = 0; attempt <= cfg_.reconnect_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(RoutingClient::backoff_delay_ms(
          attempt, cfg_.reconnect_backoff_ms, kReconnectBackoffMaxMs, seed)));
    }
    Fd fd = tcp_connect(endpoint_.host, endpoint_.port, cfg_.connect_timeout_ms,
                        cfg_.io_timeout_ms);
    if (!fd.valid()) continue;
    fd_ = std::move(fd);
    // Version negotiation before anything else on the connection.
    std::vector<std::uint8_t> buf;
    encode_hello(buf, HelloPayload{kWireVersion, kWireVersion});
    std::uint8_t version = 0;
    if (!send_all(fd_.get(), buf.data(), buf.size()) || !read_frame() ||
        view_.type != FrameType::kHelloAck || !decode_hello_ack(view_.payload, version) ||
        version != kWireVersion) {
      fd_.reset();
      continue;
    }
    return true;
  }
  return false;
}

bool SocketLink::send_request(const std::vector<std::uint8_t>& buf, bool may_retry) {
  if (!ensure_connected()) return false;
  // Scripted teardown at this exact frame boundary (tests only): the
  // connection dies before the frame reaches the wire, driving the same
  // failure paths a real mid-stream crash does — deterministically.
  if (cfg_.fault_inject && cfg_.fault_inject(index_, frames_sent_)) fd_.reset();
  ++frames_sent_;
  if (fd_.valid() && send_all(fd_.get(), buf.data(), buf.size())) return true;
  if (!may_retry) {
    fd_.reset();
    return false;
  }
  return reconnect() && send_all(fd_.get(), buf.data(), buf.size());
}

bool SocketLink::round_trip(const std::vector<std::uint8_t>& buf, bool may_retry,
                            FrameType expect) {
  (void)flush();  // Responses are per-connection ordered.
  return send_request(buf, may_retry) && read_frame() && view_.type == expect;
}

bool SocketLink::absorb_received_answers() {
  for (;;) {
    FrameView peek;
    if (polls_owed_ == 0 || peek_frame(rx_, peek) != FrameStatus::kOk ||
        peek.type != FrameType::kResultBatch) {
      return true;
    }
    const bool ok = absorb_results(peek);
    rx_.erase(rx_.begin(), rx_.begin() + peek.frame_bytes);
    if (!ok) return false;
  }
}

bool SocketLink::read_frame() {
  if (!fd_.valid()) return false;
  for (;;) {
    // Armed polls' answers precede whatever this read waits for.
    if (!absorb_received_answers()) {
      fd_.reset();
      return false;
    }
    FrameView peek;
    const auto status = peek_frame(rx_, peek);
    if (status == FrameStatus::kOk) {
      frame_.assign(rx_.begin(), rx_.begin() + peek.frame_bytes);
      rx_.erase(rx_.begin(), rx_.begin() + peek.frame_bytes);
      // Point the view at the stable copy so it outlives rx_.  The peek
      // above already checked the CRC; a re-peek would run it again.
      view_ = peek;
      view_.payload = std::span<const std::uint8_t>(frame_).subspan(kFrameHeaderBytes,
                                                                    peek.payload.size());
      return true;
    }
    if (status != FrameStatus::kNeedMore) {
      fd_.reset();  // Corrupt or desynchronized stream; resync via reconnect.
      return false;
    }
    std::uint8_t chunk[kRecvChunk];
    const long n = recv_some(fd_.get(), chunk, sizeof(chunk));
    if (n <= 0) {
      fd_.reset();
      return false;
    }
    rx_.insert(rx_.end(), chunk, chunk + n);
  }
}

namespace {
/// Decode scratch for result lists (the link is single-owner).
std::vector<host::WindowResult>& result_scratch() {
  static thread_local std::vector<host::WindowResult> results;
  return results;
}
}  // namespace

bool SocketLink::absorb_results(const FrameView& view) {
  --polls_owed_;
  auto& results = result_scratch();
  if (!decode_result_batch(view.payload, results, cfg_.payload_pool.get())) return false;
  for (auto& result : results) results_.push_back(std::move(result));
  return true;
}

void SocketLink::fail_pipeline() {
  // Answers and ACKs already received are delivered: the shard counted
  // their results retrieved.
  FrameView peek;
  while (absorb_received_answers() && !outstanding_counts_.empty() &&
         peek_frame(rx_, peek) == FrameStatus::kOk && take_ack(peek)) {
    rx_.erase(rx_.begin(), rx_.begin() + peek.frame_bytes);
  }
  std::uint64_t lost = staged_count_;
  for (const std::size_t count : outstanding_counts_) lost += count;
  for (; lost > 0; --lost) acks_.push_back({host::SubmitAck::Status::kLost, 0});
  staged_bodies_.clear();
  staged_count_ = 0;
  outstanding_counts_.clear();
}

bool SocketLink::harvest_ack() {
  if (outstanding_counts_.empty()) return true;
  if (read_frame() && take_ack(view_)) return true;
  fd_.reset();
  fail_pipeline();
  return false;
}

bool SocketLink::take_ack(const FrameView& view) {
  static thread_local std::vector<SubmitBatchAckEntry> entries;
  auto& results = result_scratch();
  if (view.type != FrameType::kSubmitBatchAck ||
      !decode_submit_batch_ack(view.payload, entries, results, cfg_.payload_pool.get()) ||
      entries.size() != outstanding_counts_.front()) {
    return false;
  }
  outstanding_counts_.pop_front();
  for (const auto& entry : entries) {
    acks_.push_back({entry.accepted ? host::SubmitAck::Status::kAccepted
                                    : host::SubmitAck::Status::kRejected,
                     entry.local_ticket});
  }
  // Results that rode in the ACK are the shard's answer as much as a
  // RESULT_BATCH is: they are retrieved there, so they are delivered here.
  for (auto& result : results) results_.push_back(std::move(result));
  return true;
}

bool SocketLink::seal_batch() {
  if (staged_count_ == 0) return true;
  if (!fd_.valid()) {
    fail_pipeline();
    return false;
  }
  // Scatter-gather seal: the frame header + count prefix (final length —
  // known now), the staged bodies untouched, and the streaming-CRC
  // trailer go out in one sendmsg; the bodies are never re-assembled into
  // a contiguous frame.  thread_local staging keeps the steady state
  // allocation-free (the client is single-owner by contract).
  static thread_local std::vector<std::uint8_t> prefix;
  static thread_local std::vector<std::uint8_t> trailer;
  prefix.clear();
  trailer.clear();
  encode_submit_batch_prefix(prefix, staged_flags_, staged_count_, staged_bodies_.size());
  encode_submit_batch_trailer(trailer, prefix, staged_bodies_);
  // This batch releases an armed poll (the shard answers it first), so a
  // fresh POLL_MANY rides behind the batch in the same write: a result
  // that completes after the ACK still finds a poll waiting for it.
  const bool rearm = polls_owed_ > 0;
  const ConstBuf bufs[4] = {{prefix.data(), prefix.size()},
                            {staged_bodies_.data(), staged_bodies_.size()},
                            {trailer.data(), trailer.size()},
                            {poll_frame().data(), rearm ? poll_frame().size() : 0}};
  // The sealed batch is one send: one fault-hook boundary.
  if (cfg_.fault_inject && cfg_.fault_inject(index_, frames_sent_)) fd_.reset();
  ++frames_sent_;
  const bool sent = fd_.valid() && send_all_vec(fd_.get(), bufs, 4);
  if (!sent) {
    fd_.reset();
    fail_pipeline();
    return false;
  }
  staged_bodies_.clear();
  outstanding_counts_.push_back(static_cast<std::size_t>(staged_count_));
  staged_count_ = 0;
  if (rearm) ++polls_owed_;
  // Bounded outgoing window: at most pipeline_depth unacknowledged frames
  // ride the wire; beyond that the submitter absorbs the shard's pace.
  while (outstanding_counts_.size() > cfg_.pipeline_depth) {
    if (!harvest_ack()) return false;
  }
  return true;
}

bool SocketLink::flush() {
  if (!seal_batch()) return false;
  while (!outstanding_counts_.empty()) {
    if (!harvest_ack()) return false;
  }
  return true;
}

bool SocketLink::submit(host::CompressedWindow& window, bool blocking) {
  if (!ensure_connected()) return false;
  // One frame carries one admission mode: a mode switch seals first.
  const std::uint8_t flags = blocking ? kSubmitFlagBlocking : 0;
  if (staged_count_ > 0 && flags != staged_flags_ && !seal_batch()) return false;
  staged_flags_ = flags;
  encode_submit_batch_entry(staged_bodies_, window, cfg_.wire);
  ++staged_count_;
  if (staged_count_ >= cfg_.submit_batch_windows) (void)seal_batch();
  return true;
}

bool SocketLink::poll_many(host::RingDeque<host::WindowResult>& out, std::uint64_t owed) {
  (void)flush();
  std::uint8_t chunk[kRecvChunk];
  bool ok = true;
  while (fd_.valid() && polls_owed_ > 0) {
    FrameView view;
    const auto status = peek_frame(rx_, view);
    if (status == FrameStatus::kNeedMore) {
      const long n = recv_some(fd_.get(), chunk, sizeof(chunk), /*wait=*/false);
      if (n > 0) {
        rx_.insert(rx_.end(), chunk, chunk + n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;  // Not answered yet.
      fd_.reset();  // Orderly close or hard error: the shard is gone.
      ok = false;
      break;
    }
    // The pipeline is synced, so only armed polls' answers are owed here.
    if (status != FrameStatus::kOk || view.type != FrameType::kResultBatch ||
        !absorb_results(view)) {
      fd_.reset();
      ok = false;
      break;
    }
    rx_.erase(rx_.begin(), rx_.begin() + view.frame_bytes);
  }
  // Arm only while the shard holds windows not yet retrieved, and only one.
  // Results that rode in an ACK are retrieved already: no poll for them.
  const bool arm = ok && owed > results_.size() && !(fd_.valid() && polls_owed_ > 0);
  take_results(out);
  if (!arm) return ok;
  if (!send_request(poll_frame(), /*may_retry=*/true)) return false;
  ++polls_owed_;
  return true;
}

bool SocketLink::snapshot(host::ShardCounters& counters,
                          host::RingDeque<host::WindowResult>* sweep) {
  return exchange_snapshot(counters, sweep, /*recv_timeout_ms=*/0);
}

bool SocketLink::probe() {
  // io_timeout_ms is sized for verbs that legitimately wait (drains);
  // "dead or deadlined" must be decidable much faster.
  host::ShardCounters counters;
  return exchange_snapshot(counters, nullptr, cfg_.health_probe_timeout_ms);
}

bool SocketLink::exchange_snapshot(host::ShardCounters& counters,
                                   host::RingDeque<host::WindowResult>* sweep,
                                   int recv_timeout_ms) {
  (void)flush();
  tx_.clear();
  const bool arm = sweep != nullptr && (!fd_.valid() || polls_owed_ == 0);
  if (arm) tx_ = poll_frame();
  const std::uint64_t nonce = ++snapshot_nonce_;
  encode_snapshot_request(tx_, nonce);
  const bool sent = send_request(tx_, /*may_retry=*/true);
  if (sent && arm) ++polls_owed_;
  const bool tighten = sent && recv_timeout_ms > 0;
  if (tighten) (void)set_recv_timeout(fd_.get(), recv_timeout_ms);
  bool ok = sent && read_frame();
  if (tighten && fd_.valid()) (void)set_recv_timeout(fd_.get(), cfg_.io_timeout_ms);
  std::uint64_t echoed = 0;
  if (ok && (view_.type != FrameType::kSnapshot ||
             !decode_snapshot(view_.payload, echoed, counters, advisory_cr_centi_) ||
             echoed != nonce)) {
    fd_.reset();  // Wrong answer or a stale echo: desynchronized.
    ok = false;
  }
  // Hand over what was received even when the shard stopped answering.
  if (sweep != nullptr) take_results(*sweep);
  return ok;
}

bool SocketLink::drain_patient(std::uint32_t patient_id) {
  tx_.clear();
  encode_patient_frame(tx_, FrameType::kDrainPatient, patient_id);
  std::uint32_t echoed = 0;
  return round_trip(tx_, /*may_retry=*/false, FrameType::kDrainDone) &&
         decode_patient_frame(view_.payload, echoed) && echoed == patient_id;
}

bool SocketLink::extract_slo(std::uint32_t patient_id,
                             std::optional<host::SloTrackerState>& state) {
  tx_.clear();
  encode_patient_frame(tx_, FrameType::kExtractSlo, patient_id);
  SloStatePayload slo;
  if (!round_trip(tx_, /*may_retry=*/false, FrameType::kSloState) ||
      !decode_slo_state(view_.payload, slo)) {
    return false;
  }
  state = slo.present ? std::optional(std::move(slo.state)) : std::nullopt;
  return true;
}

bool SocketLink::adopt_slo(std::uint32_t patient_id, const host::SloTrackerState& state,
                           bool& adopted) {
  tx_.clear();
  encode_slo_state(tx_, FrameType::kAdoptSlo, SloStatePayload{patient_id, true, state});
  return round_trip(tx_, /*may_retry=*/false, FrameType::kAdoptAck) &&
         decode_adopt_ack(view_.payload, adopted);
}

void SocketLink::close(bool bye) {
  if (fd_.valid()) (void)flush();
  if (bye && fd_.valid()) {
    tx_.clear();
    encode_bye(tx_);
    if (send_all(fd_.get(), tx_.data(), tx_.size())) (void)read_frame();  // BYE_ACK.
  }
  fd_.reset();
}

// --- RoutingClient -----------------------------------------------------------

RoutingClient::RoutingClient(RoutingClientConfig cfg)
    : cfg_(std::move(cfg)), coord_(host::CoordinatorConfig{cfg_.auto_failover, cfg_.payload_pool}) {}

bool RoutingClient::connect(std::vector<ShardEndpoint> shards) {
  hints_epoch_ = ~std::uint64_t{0};  // Drops any cached hints.
  std::vector<std::unique_ptr<host::ShardLink>> links;
  for (auto& ep : shards) {
    auto link = std::make_unique<SocketLink>(std::move(ep), links.size(), cfg_);
    if (!link->ensure_connected()) {
      coord_.open({});
      return false;
    }
    links.push_back(std::move(link));
  }
  coord_.open(std::move(links));
  return true;
}

std::vector<std::size_t> RoutingClient::check_health() {
  std::vector<std::size_t> dead;
  for (std::size_t shard = 0; shard < shard_count(); ++shard) {
    if (link(shard) == nullptr || probe_health(shard)) continue;
    dead.push_back(shard);
    if (cfg_.auto_failover) (void)fail_shard(shard);
  }
  return dead;
}

int RoutingClient::backoff_delay_ms(int attempt, int base_ms, int max_ms, std::uint64_t seed) {
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

bool RoutingClient::refresh_cr_hints() {
  shard_advisory_.assign(shard_count(), 0.0);
  hints_epoch_ = epoch();
  bool ok = true;
  for (std::size_t shard = 0; shard < shard_count(); ++shard) {
    SocketLink* l = link(shard);
    if (l == nullptr) continue;
    host::ShardCounters counters;
    if (!l->snapshot(counters, nullptr)) {
      ok = false;
      continue;
    }
    shard_advisory_[shard] = l->advisory_cr_centi() / 100.0;
  }
  return ok;
}

std::optional<double> RoutingClient::cr_hint(std::uint32_t patient_id) const {
  if (shard_count() == 0 || hints_epoch_ != epoch()) return std::nullopt;
  const double advisory = shard_advisory_[owner(patient_id)];
  if (advisory > 0.0) return advisory;
  return std::nullopt;
}

bool RoutingClient::set_topology(std::vector<ShardEndpoint> shards) {
  // Reuse live connections for endpoints that survive (matched by
  // host:port) so their engines keep their backlogs and completion lists.
  // A failed slot never matches: a restarted daemon on a crashed shard's
  // endpoint is a brand-new shard with a fresh connection.
  std::vector<host::Coordinator::NextSlot> next(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    for (std::size_t s = 0; s < shard_count(); ++s) {
      if (link(s) != nullptr && link(s)->endpoint() == shards[i]) next[i].keep = s;
    }
    if (next[i].keep != host::Coordinator::NextSlot::kFresh) continue;
    auto fresh = std::make_unique<SocketLink>(std::move(shards[i]), i, cfg_);
    if (!fresh->ensure_connected()) return false;
    next[i].fresh = std::move(fresh);
  }
  host::ResizeReport report;
  const bool ok = coord_.resize(std::move(next), report);
  for (std::size_t i = 0; i < shard_count(); ++i) link(i)->set_index(i);
  return ok;
}

}  // namespace wbsn::net
