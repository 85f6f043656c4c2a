// RoutingClient — the cross-machine face of the coordinator.
//
// Speaks wbsn-wire v8 to a fleet of ShardServer processes and presents
// the same submit/poll/drain surface as host::ReconstructionFabric.  Both
// are façades over one host::Coordinator (coordinator.hpp), which owns the
// ring per epoch, composite tickets, the resize migration order
// (DRAIN_PATIENT, sweep of the old owner's parked results, EXTRACT_SLO,
// ADOPT_SLO, then synchronous retirement with BYE), crash failover with
// the `lost` fold, and the conservation books.  What the client adds is
// what only the wire has: SocketLink (below), endpoint-keyed topology
// (set_topology matches endpoints by host:port, so surviving shards keep
// their connections and backlogs even when their index shifts), liveness
// probes and CR hints (both SNAPSHOT round trips), and the reconnect
// schedule.
//
// SocketLink, the transport to one shard:
//   * Every window travels in a SUBMIT_BATCH.  Windows stage into one
//     frame per submit_batch_windows, sealed scatter-gather — prefix, the
//     staged bodies, CRC trailer — in one sendmsg; up to pipeline_depth
//     unacknowledged frames ride the wire, and acks surface in submission
//     order when the SUBMIT_BATCH_ACK arrives.  Any other verb syncs the
//     pipeline first (responses are per-connection ordered).
//   * Each SUBMIT_BATCH_ACK carries the results the shard had ready when
//     it sent it (every window its event loop solved before acking), and
//     the next poll_many() hands them over with no request at all.
//   * The rest come back by long-poll.  While the shard holds windows the
//     coordinator has not retrieved, the link keeps one POLL_MANY armed
//     there; the shard answers it as soon as a result is ready, and
//     poll_many() picks the answer up with a non-blocking read.  Any later
//     request makes the shard release the armed poll first (possibly
//     empty), so every read absorbs RESULT_BATCH frames owed to armed
//     polls before the frame it is waiting for.  A SUBMIT_BATCH sealed
//     while a poll is armed carries a fresh POLL_MANY in the same write.
//   * Every SNAPSHOT_REQUEST carries a fresh nonce and the answer must echo
//     it: a wrong or stale echo means the stream is desynchronized, and
//     the link resets the connection.
//   * Sockets are blocking with I/O timeouts; a failed connection is
//     retried with capped, jittered exponential backoff.  Verbs that carry
//     no server-side state transition are retried across a reconnect;
//     SUBMIT_BATCH and the migration verbs are not (a retry could
//     double-submit): windows unacknowledged on a dead connection resolve
//     as lost.
//
// Threading: single owner, like the coordinator — one thread owns the
// client; it is not thread-safe.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "host/coordinator.hpp"
#include "host/reconstruction_engine.hpp"
#include "net/socket.hpp"
#include "net/wire_format.hpp"

namespace wbsn::net {

struct ShardEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  bool operator==(const ShardEndpoint&) const = default;
};

struct RoutingClientConfig {
  int connect_timeout_ms = 5000;
  /// Per-operation socket send/recv timeout.  Generous by default: a
  /// DRAIN_PATIENT response legitimately waits out a backlog.
  int io_timeout_ms = 60000;
  int reconnect_attempts = 5;
  /// First reconnect backoff.  Doubles per attempt up to a fixed 2 s
  /// ceiling, plus deterministic jitter up to +25% (see backoff_delay_ms).
  int reconnect_backoff_ms = 10;
  /// Socket receive deadline for a liveness probe's SNAPSHOT, separate from
  /// io_timeout_ms (which is sized for verbs that legitimately wait, like
  /// DRAIN_PATIENT).  A shard that cannot echo a nonce within this window
  /// is treated as dead by check_health().  <= 0: use io_timeout_ms.
  int health_probe_timeout_ms = 1000;
  /// Crash failover: when a shard stops answering (send/recv error after
  /// reconnect retries, or a health-probe timeout), fail it automatically
  /// — fail_shard() semantics — and re-route the in-hand window to the
  /// survivor that now owns its patient.  Off by default: without it a
  /// dead shard surfaces as submit/poll failures, exactly as before.
  bool auto_failover = false;
  /// Deterministic fault hook for tests: called before every frame send
  /// with (shard index, frames already sent on that connection); returning
  /// true tears the connection down at that exact frame boundary, so a
  /// mid-stream crash can be scripted and replayed bit-for-bit.  A
  /// POLL_MANY riding behind a SUBMIT_BATCH shares its send and its count.
  /// Unset in production.
  std::function<bool(std::size_t, std::uint64_t)> fault_inject;
  /// Pipelined submit window: maximum unacknowledged SUBMIT_BATCH frames
  /// per shard before submit_pipelined harvests an ACK.  0 (default)
  /// acknowledges every frame as soon as it is sealed.
  std::size_t pipeline_depth = 0;
  /// Windows packed into one SUBMIT_BATCH frame in pipelined mode.
  std::size_t submit_batch_windows = 16;
  WireEncodeOptions wire{};
  /// Decode result signals into pooled buffers; recycle submitted windows'
  /// payloads after the shard acknowledges them.  Same zero-copy contract
  /// as EngineConfig::payload_pool.
  std::shared_ptr<host::PayloadPool> payload_pool;
};

/// One ShardServer behind the ShardLink verbs, over one TCP connection.
class SocketLink final : public host::ShardLink {
 public:
  /// `cfg` must outlive the link (the client owns both).
  SocketLink(ShardEndpoint endpoint, std::size_t index, const RoutingClientConfig& cfg)
      : endpoint_(std::move(endpoint)), index_(index), cfg_(cfg) {}

  const ShardEndpoint& endpoint() const { return endpoint_; }
  /// The shard slot this link serves (fault-hook and jitter identity).
  void set_index(std::size_t index) { index_ = index; }

  /// Connects (with the reconnect schedule) unless already connected.
  bool ensure_connected();

  bool submit(host::CompressedWindow& window, bool blocking) override;
  bool flush() override;
  bool poll_many(host::RingDeque<host::WindowResult>& out, std::uint64_t owed) override;
  /// SNAPSHOT, its nonce echoed; a sweep rides a POLL_MANY in the same
  /// write (unless one is armed already), which the snapshot releases, so
  /// its results are absorbed first and the counters count what is left.
  bool snapshot(host::ShardCounters& counters,
                host::RingDeque<host::WindowResult>* sweep) override;
  bool drain_patient(std::uint32_t patient_id) override;
  bool extract_slo(std::uint32_t patient_id,
                   std::optional<host::SloTrackerState>& state) override;
  bool adopt_slo(std::uint32_t patient_id, const host::SloTrackerState& state,
                 bool& adopted) override;
  /// One liveness round trip: a SNAPSHOT with no sweep, its nonce echoed
  /// within health_probe_timeout_ms.
  bool probe();
  /// The CR advisory of the last SNAPSHOT decoded, % × 100; 0 = none.
  std::uint32_t advisory_cr_centi() const { return advisory_cr_centi_; }
  void close(bool bye) override;

 private:
  bool reconnect();
  /// Sends `buf`; one reconnect-and-resend on failure when `may_retry`.
  bool send_request(const std::vector<std::uint8_t>& buf, bool may_retry);
  /// One request/response round trip (the pipeline synced first); the
  /// response must be of type `expect`.
  bool round_trip(const std::vector<std::uint8_t>& buf, bool may_retry, FrameType expect);
  /// One SNAPSHOT exchange (the pipeline synced first); the answer is read
  /// under `recv_timeout_ms` when that is > 0.  A wrong answer or echo
  /// resets the connection.
  bool exchange_snapshot(host::ShardCounters& counters,
                         host::RingDeque<host::WindowResult>* sweep, int recv_timeout_ms);
  /// Blocks until one complete frame is buffered; copies it into frame_
  /// (stable against further reads) and points view_ into the copy.  RESULT_BATCH
  /// answers owed to armed polls are absorbed on the way.
  bool read_frame();
  /// Decodes one RESULT_BATCH (the answer to the oldest owed poll) into
  /// results_.
  bool absorb_results(const FrameView& view);
  /// Absorbs the complete RESULT_BATCH frames owed to armed polls at the
  /// front of rx_; false when one does not decode.
  bool absorb_received_answers();
  /// Seals the staged bodies into one SUBMIT_BATCH on the wire and
  /// enforces the pipeline depth by harvesting acks.
  bool seal_batch();
  /// Blocks for one SUBMIT_BATCH_ACK and takes it.
  bool harvest_ack();
  /// Records the oldest outstanding frame's ACK `view`, with the results
  /// it carries; false when `view` is not that ACK.
  bool take_ack(const FrameView& view);
  /// The connection died: takes what rx_ holds complete, then resolves
  /// every other staged or unacknowledged window as lost.
  void fail_pipeline();

  ShardEndpoint endpoint_;
  std::size_t index_ = 0;
  const RoutingClientConfig& cfg_;
  Fd fd_;
  std::vector<std::uint8_t> rx_;
  std::vector<std::uint8_t> frame_;  ///< The last frame read_frame() returned.
  FrameView view_;                   ///< Parsed view of frame_.
  std::vector<std::uint8_t> tx_;     ///< Request scratch.
  /// Sends attempted (fault-hook clock).  A POLL_MANY riding behind a
  /// SUBMIT_BATCH shares its send.
  std::uint64_t frames_sent_ = 0;
  /// POLL_MANY answers not yet read.  Meaningful only while fd_ is valid:
  /// fail_pipeline() absorbs those already in rx_, then reconnect() clears
  /// both.
  std::uint32_t polls_owed_ = 0;
  std::uint64_t snapshot_nonce_ = 0;
  std::uint32_t advisory_cr_centi_ = 0;
  /// Encoded window bodies not yet sealed into a frame.
  std::vector<std::uint8_t> staged_bodies_;
  std::uint64_t staged_count_ = 0;
  std::uint8_t staged_flags_ = kSubmitFlagBlocking;  ///< Admission mode of the staged frame.
  /// Window count of each unacknowledged SUBMIT_BATCH on the wire.
  std::deque<std::size_t> outstanding_counts_;
};

class RoutingClient {
 public:
  explicit RoutingClient(RoutingClientConfig cfg = {});
  ~RoutingClient() { shutdown(false); }

  RoutingClient(const RoutingClient&) = delete;
  RoutingClient& operator=(const RoutingClient&) = delete;

  /// Connects and version-negotiates with every endpoint; epoch 0 opens on
  /// success.  False when any endpoint stays unreachable after retries.
  bool connect(std::vector<ShardEndpoint> shards);

  /// Topology slots, failed ones included — index identity is what keeps
  /// composite tickets stable across failovers.
  std::size_t shard_count() const { return coord_.shard_count(); }
  std::size_t live_shard_count() const { return coord_.live_shard_count(); }
  bool shard_failed(std::size_t shard) const {
    return shard < shard_count() && coord_.link(shard) == nullptr;
  }
  std::uint32_t epoch() const { return coord_.epoch(); }

  /// The shard index that owns `patient_id` under the current epoch.
  std::size_t owner(std::uint32_t patient_id) const { return coord_.owner(patient_id); }

  /// Reshards to a new endpoint set under a fresh epoch, in the
  /// coordinator's migration order.  Endpoints are matched by host:port,
  /// so surviving shards keep their connections (and their engines keep
  /// their backlogs) even when their index shifts.  False when a new
  /// endpoint is unreachable (nothing changes) or a migration verb fails
  /// (the flip stands — resolve connectivity and call again).
  bool set_topology(std::vector<ShardEndpoint> shards);

  // Submission, retrieval, failover and the audit surface are the
  // coordinator's (see host::Coordinator).  Every submit uses blocking
  // admission on the shard: it never sheds and never counts a rejection.
  std::optional<std::uint64_t> submit(host::CompressedWindow window) {
    return coord_.submit(window, /*blocking=*/true);
  }
  bool submit_pipelined(host::CompressedWindow&& window) {
    return coord_.submit_pipelined(std::move(window));
  }
  std::vector<std::optional<std::uint64_t>> flush_submits() { return coord_.flush_submits(); }
  std::optional<host::WindowResult> poll() { return coord_.poll(); }
  std::vector<host::WindowResult> drain() { return coord_.drain(); }
  SnapshotPayload aggregate_snapshot() { return coord_.aggregate(); }
  bool fail_shard(std::size_t shard) { return coord_.fail_shard(shard); }
  std::optional<host::SloTrackerState> patient_slo_state(std::uint32_t patient_id) {
    return coord_.patient_slo_state(patient_id);
  }

  /// Sends every live shard one SNAPSHOT and caches each shard's advisory
  /// CR, tagged with the current routing epoch (a reshard invalidates them
  /// — stale hints must never steer a node via the wrong owner).  False
  /// when any shard was unreachable; the hints that did land are kept.
  bool refresh_cr_hints();

  /// The advisory CR (percent) the fleet wants `patient_id`'s node to
  /// encode at, from the last refresh_cr_hints(): its owner shard's
  /// advisory.  nullopt when no pressure was reported or the hints predate
  /// the current epoch — the node then encodes at its configured fidelity.
  /// Advisory by contract: ignoring it is always correct, just slower
  /// under overload.
  std::optional<double> cr_hint(std::uint32_t patient_id) const;

  /// One liveness round trip to shard `shard`: a SNAPSHOT, its nonce
  /// echoed within health_probe_timeout_ms.  False means dead-or-deadlined
  /// — the caller's (or check_health's) cue to fail over.
  bool probe_health(std::size_t shard) { return link(shard) != nullptr && link(shard)->probe(); }

  /// Probes every live shard; with cfg.auto_failover, dead ones are
  /// failed over on the spot.  Returns the indices that failed the probe.
  std::vector<std::size_t> check_health();

  /// The capped-and-jittered reconnect schedule: attempt k (1-based)
  /// sleeps base·2^(k-1) ms, clamped to max_ms, plus a deterministic
  /// jitter of up to +25% derived from (seed, attempt).  Pure — exposed
  /// so tests can pin the schedule byte-for-byte.
  static int backoff_delay_ms(int attempt, int base_ms, int max_ms, std::uint64_t seed);

  /// Closes every connection; with `send_bye`, dismisses the shards first
  /// (stops stop_on_bye daemons).  Idempotent; the destructor calls
  /// shutdown(false).
  void shutdown(bool send_bye) { coord_.close(send_bye); }

 private:
  SocketLink* link(std::size_t shard) const {
    return static_cast<SocketLink*>(coord_.link(shard));
  }

  RoutingClientConfig cfg_;
  host::Coordinator coord_;
  /// CR-hint cache from the last refresh_cr_hints(), shard -> CR %.  Valid
  /// only while hints_epoch_ == epoch() (a reshard opens a new epoch and
  /// thereby invalidates every cached hint).  0.0 means "no advisory".
  std::vector<double> shard_advisory_;
  std::uint64_t hints_epoch_ = ~std::uint64_t{0};  ///< Sentinel: none yet.
};

}  // namespace wbsn::net
