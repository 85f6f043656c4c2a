// RoutingClient — the coordinator half of the cross-machine fabric.
//
// Speaks wbsn-wire v4 to a fleet of ShardServer processes and presents
// the same submit/poll/drain surface as host::ReconstructionFabric, with
// the same placement guarantees proven for the in-process fabric:
//
//   * Patients are routed by the same consistent-hash ring
//     (host::HashRing) the in-process fabric uses — the ring is rebuilt
//     locally from (shard_count, host::kVnodesPerShard), so client and any
//     audit tool agree on placement without a metadata service.
//   * set_topology() opens a new routing epoch, exactly like
//     ReconstructionFabric::resize(): the ring/endpoint list flips first
//     (no new submission routes to a leaving shard), then every moved
//     patient is drained on its old shard (DRAIN_PATIENT), its SLO
//     history extracted (EXTRACT_SLO) and adopted by the new owner
//     (ADOPT_SLO) — counts conserved end to end because extract_state()
//     is an exchange(0) on every counter.
//   * Tickets are the fabric's composite epoch | shard | local form
//     (ReconstructionFabric::compose_ticket).  The submission epoch rides
//     in CompressedWindow::route_tag and comes back in the result, and the
//     client keeps the ring of every epoch it has opened, so a result
//     polled after any number of reshards still composes the exact ticket
//     its submit() returned.
//   * Shards leaving the topology are retired synchronously: their
//     remaining results are polled out, their final counter snapshot is
//     folded into the client's retired accumulator (so
//     aggregate_snapshot() conserves submitted == completed + shed and
//     attempts == submitted + rejected across the whole topology
//     history), and they are dismissed with BYE — which stops a
//     stop_on_bye daemon.
//   * Shards that *crash* can't be retired — they will never answer the
//     drain/extract handshake.  fail_shard() (manual, or automatic under
//     cfg.auto_failover when I/O or a health probe fails) opens a
//     failover epoch instead: the ring flips to a subset ring over the
//     survivors, the dead shard's patients re-home, and the client's own
//     per-shard submit/poll mirrors replace the unavailable final
//     snapshot — windows acknowledged but never polled back land in the
//     explicit `lost` counter, so the audit identity becomes
//     submitted == completed + shed + rejected + lost and stays conserved
//     across crashes.
//   * Every window travels in a SUBMIT_BATCH.  submit_pipelined stages
//     windows into per-shard frames (one frame per submit_batch_windows
//     windows, sealed scatter-gather — prefix, the staged bodies, CRC
//     trailer — in one sendmsg), keeps up to pipeline_depth
//     unacknowledged frames on the wire per shard, and defers ticket
//     composition until the SUBMIT_BATCH_ACK arrives.  flush_submits()
//     is the sync point: it seals the tail, harvests every outstanding
//     ACK, and returns the composite tickets in submission order.  Any
//     other verb on a shard syncs its pipeline first (responses are
//     per-connection ordered).  submit() is the same path with a
//     one-window frame, sealed and acknowledged before it returns.
//   * Results come back by long-poll.  While a shard holds windows this
//     client has not retrieved, the client keeps one POLL_MANY armed
//     there; the shard answers it as soon as a result is ready, and
//     poll() picks the answer up with a non-blocking read — it never
//     waits on a shard.  Any later request on the connection makes the
//     shard release the armed poll first (possibly empty), so every read
//     absorbs RESULT_BATCH frames owed to armed polls before the frame it
//     is waiting for.  A SUBMIT_BATCH sealed while a poll is armed
//     carries a fresh POLL_MANY in the same write, so the poll stays armed
//     across submits.
//
// Threading: single-coordinator by design, like the reshard protocol
// itself — one thread owns the client; it is not thread-safe.  Sockets
// are blocking with I/O timeouts; a failed connection is retried with
// exponential backoff (reconnect_* knobs).  Verbs that carry no
// server-side state transition are retried across a reconnect; SUBMIT is
// not (a retry could double-submit), it reports failure instead.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "host/hash_ring.hpp"
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
  int reconnect_backoff_ms = 10;  ///< Doubles per attempt up to the cap.
  /// Ceiling on one backoff sleep.  The schedule is base·2^(k-1) clamped
  /// here, plus deterministic jitter up to +25% (see backoff_delay_ms) —
  /// uncapped doubling overflowed int at high reconnect_attempts.
  int reconnect_backoff_max_ms = 2000;
  /// Socket receive deadline for a HEALTH probe response, separate from
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

class RoutingClient {
 public:
  explicit RoutingClient(RoutingClientConfig cfg = {});
  ~RoutingClient();

  RoutingClient(const RoutingClient&) = delete;
  RoutingClient& operator=(const RoutingClient&) = delete;

  /// Connects and version-negotiates with every endpoint; epoch 0 opens on
  /// success.  False when any endpoint stays unreachable after retries.
  bool connect(std::vector<ShardEndpoint> shards);

  /// Topology slots, failed ones included — index identity is what keeps
  /// composite tickets stable across failovers.
  std::size_t shard_count() const { return conns_.size(); }
  std::size_t live_shard_count() const;
  bool shard_failed(std::size_t shard) const;
  std::uint32_t epoch() const { return epoch_; }

  /// The shard index that owns `patient_id` under the current epoch.
  std::size_t owner(std::uint32_t patient_id) const;

  /// Reshards to a new endpoint set under a fresh epoch (see file
  /// comment).  Endpoints are matched by host:port, so surviving shards
  /// keep their connections (and their engines keep their backlogs) even
  /// when their index shifts.  False when a new endpoint is unreachable
  /// or a migration verb fails; the epoch flip is not rolled back —
  /// resolve connectivity and call again.
  bool set_topology(std::vector<ShardEndpoint> shards);

  /// Blocking submit of one window as a one-window SUBMIT_BATCH: the shard
  /// waits out its backpressure server-side (never sheds, never counts a
  /// rejection).  With auto_failover, a window whose shard died before
  /// acknowledging it re-routes to the new owner.  nullopt only on a dead
  /// connection.
  std::optional<std::uint64_t> submit(host::CompressedWindow window);

  /// Pipelined submit (see file comment): stages the window toward its
  /// owner shard and returns immediately — the ticket arrives with the
  /// batch ACK and is surfaced by the next flush_submits().  Blocking
  /// admission semantics on the shard (never sheds, never counts a
  /// rejection), like submit().  False only on a dead connection (the
  /// window is then dropped, consistent with the no-retry SUBMIT rule).
  bool submit_pipelined(host::CompressedWindow&& window);

  /// Seals every staged batch, harvests every outstanding ACK, and
  /// returns one entry per submit_pipelined() since the last flush, in
  /// submission order: the composite ticket, or nullopt when the window
  /// was rejected or its connection died with the ACK outstanding (such
  /// windows are NOT retried — a retry could double-submit).
  std::vector<std::optional<std::uint64_t>> flush_submits();

  /// One completed result in arrival order across shards, or nullopt when
  /// none has arrived yet.  Never blocks on a shard: it reads answers the
  /// shards already sent and arms a POLL_MANY where windows are pending.
  std::optional<host::WindowResult> poll();

  /// Polls until every shard reports quiescence (nothing unsolved, nothing
  /// ready) and returns everything retrieved.
  std::vector<host::WindowResult> drain();

  /// Sum of every live shard's counter snapshot plus the retired
  /// accumulator — the conservation audit surface.  Exact when quiesced.
  SnapshotPayload aggregate_snapshot();

  /// Polls every live shard with CR_HINT and caches the answers: the
  /// shard-wide advisory CR and any per-patient entries, all tagged with
  /// the current routing epoch (a reshard invalidates them — stale hints
  /// must never steer a node via the wrong owner).  False when any shard
  /// was unreachable or answered for a different epoch; the hints that did
  /// land are kept.
  bool refresh_cr_hints(std::uint32_t max_entries_per_shard = 64);

  /// The advisory CR (percent) the fleet wants `patient_id`'s node to
  /// encode at, from the last refresh_cr_hints(): the per-patient entry if
  /// the shard sent one, else its owner shard's advisory.  nullopt when no
  /// pressure was reported or the hints predate the current epoch — the
  /// node then encodes at its configured fidelity.  Advisory by contract:
  /// ignoring it is always correct, just slower under overload.
  std::optional<double> cr_hint(std::uint32_t patient_id) const;

  /// Declares shard `shard` dead and recovers without its cooperation:
  /// the connection drops, unacked pipelined windows resolve to nullopt,
  /// and a failover epoch flips the ring to a subset ring over the
  /// survivors — no DRAIN_PATIENT/EXTRACT_SLO handshake, the peer is
  /// gone.  Because virtual-node positions depend only on (shard,
  /// replica), only the dead shard's patients move and every survivor
  /// keeps its index, so tickets from any epoch still compose.  The
  /// client's own submit/poll mirrors stand in for the unavailable final
  /// snapshot: every acknowledged window is folded into the retired
  /// accumulator as completed (polled back in time) or `lost` (destroyed
  /// with the shard — including any it shed before dying, which are
  /// indistinguishable from here).  The dead shard's per-patient SLO
  /// history dies with it; survivors adopt its patients with fresh
  /// trackers.  False when the shard is already failed, out of range, or
  /// the last one standing (nowhere to re-home).
  bool fail_shard(std::size_t shard);

  /// One liveness round trip to shard `shard`: HEALTH, its nonce echoed
  /// within health_probe_timeout_ms.  False means dead-or-deadlined — the
  /// caller's (or check_health's) cue to fail over.
  bool probe_health(std::size_t shard);

  /// Probes every live shard; with cfg.auto_failover, dead ones are
  /// failed over on the spot.  Returns the indices that failed the probe.
  std::vector<std::size_t> check_health();

  /// The capped-and-jittered reconnect schedule: attempt k (1-based)
  /// sleeps base·2^(k-1) ms, clamped to max_ms, plus a deterministic
  /// jitter of up to +25% derived from (seed, attempt).  Pure — exposed
  /// so tests can pin the schedule byte-for-byte.
  static int backoff_delay_ms(int attempt, int base_ms, int max_ms, std::uint64_t seed);

  /// Per-patient SLO state fetched from the patient's current owner
  /// (EXTRACT_SLO + immediate ADOPT_SLO back, so the history stays on the
  /// shard).  nullopt when the shard is unreachable.
  std::optional<host::SloTrackerState> patient_slo_state(std::uint32_t patient_id);

  /// Closes every connection; with `send_bye`, dismisses the shards first
  /// (stops stop_on_bye daemons).  Idempotent; the destructor calls
  /// shutdown(false).
  void shutdown(bool send_bye);

 private:
  /// One submit_pipelined() call awaiting its ticket.
  struct PipelinedSubmit {
    std::uint32_t epoch = 0;
    std::size_t shard = 0;
    bool resolved = false;
    std::optional<std::uint64_t> ticket;  ///< Composite; set when resolved.
  };

  struct Conn {
    ShardEndpoint endpoint;
    Fd fd;
    std::vector<std::uint8_t> rx;
    std::size_t index = 0;  ///< Shard index (== this conn's slot in conns_).
    /// Declared dead by fail_shard(): never reconnected, skipped by every
    /// sweep; the slot stays so survivor indices don't shift.
    bool failed = false;
    // Client-side mirrors of the shard's counters, maintained from the
    // frames this client exchanged with it.  They are exact for exactly
    // the quantities a crash makes unknowable server-side, which is what
    // lets fail_shard() conserve counts without a final snapshot.
    std::uint64_t acked_submits = 0;  ///< Windows the shard acknowledged.
    std::uint64_t retrieved = 0;      ///< Results polled back from it.
    std::uint64_t rejected_seen = 0;  ///< Windows it rejected.
    /// Sends attempted (fault-hook clock).  A POLL_MANY riding behind a
    /// SUBMIT_BATCH shares its send.
    std::uint64_t frames_sent = 0;
    /// POLL_MANY answers not yet read.  Meaningful only while fd is
    /// valid: reconnect() clears it with rx.
    std::uint32_t polls_owed = 0;
    std::uint64_t health_nonce = 0;   ///< Last probe nonce issued.
    // Submit pipeline state.  staged_bodies holds
    // encoded window bodies not yet sealed into a frame; pending_submits
    // indexes pipeline_submits_ in per-shard FIFO order (ACK entries
    // resolve from the front); outstanding_counts tracks the window count
    // of each unacknowledged SUBMIT_BATCH on the wire.
    std::vector<std::uint8_t> staged_bodies;
    std::uint64_t staged_count = 0;
    std::deque<std::size_t> pending_submits;
    std::deque<std::size_t> outstanding_counts;
  };

  bool ensure_connected(Conn& conn);
  bool reconnect(Conn& conn);
  /// Sends `buf`; one reconnect-and-resend on failure when `may_retry`.
  bool send_request(Conn& conn, const std::vector<std::uint8_t>& buf, bool may_retry);
  /// Blocks until one complete frame is buffered; fills `frame` (a copy,
  /// stable against further reads) and parses it into `view`.  RESULT_BATCH
  /// answers owed to armed polls are absorbed on the way.
  bool read_frame(Conn& conn, std::vector<std::uint8_t>& frame, FrameView& view);
  /// Decodes one RESULT_BATCH (the answer to the oldest owed poll) into
  /// pending_.
  bool absorb_results(Conn& conn, const FrameView& view);
  /// poll()'s per-shard step: absorbs the answers that have already
  /// arrived without blocking, then arms a POLL_MANY if windows are still
  /// pending there and none is armed.
  bool collect(Conn& conn);
  /// Encodes `window` (tagged with the current epoch) into conn's staged
  /// frame and queues its ticket record in pipeline_submits_.
  void stage(Conn& conn, host::CompressedWindow& window);
  /// Seals staged_bodies into one SUBMIT_BATCH on the wire (scatter-
  /// gather) and enforces the pipeline depth by harvesting ACKs.
  bool seal_batch(Conn& conn);
  /// Blocks for one SUBMIT_BATCH_ACK and resolves its windows' tickets.
  bool harvest_ack(Conn& conn);
  /// seal + harvest everything outstanding; called before any other verb
  /// uses the connection (responses are per-connection ordered).
  bool sync_pipeline(Conn& conn);
  /// Marks every unresolved pipelined window of this conn as lost
  /// (nullopt ticket) — the connection died with ACKs outstanding.
  void fail_pipeline(Conn& conn);
  std::uint64_t compose_result_ticket(const host::WindowResult& result);
  bool drain_and_move_patient(std::uint32_t patient_id, Conn& from, Conn& to);
  bool retire(Conn& conn);
  /// One SNAPSHOT round trip.  With `sweep`, a POLL_MANY rides in the same
  /// write (unless one is armed already); the snapshot releases it, so its
  /// results are absorbed first and the snapshot counts what is left.
  bool fetch_snapshot(Conn& conn, SnapshotPayload& out, bool sweep = false);

  RoutingClientConfig cfg_;
  std::vector<std::unique_ptr<Conn>> conns_;  ///< Index == shard index.
  std::uint32_t epoch_ = 0;
  /// ring_history_[e] is epoch e's ring: result tickets compose with the
  /// shard index of their *submission* epoch, whatever the topology now.
  std::vector<host::HashRing> ring_history_;
  std::unordered_set<std::uint32_t> patients_;  ///< Ever-submitted ids.
  std::deque<host::WindowResult> pending_;      ///< Polled, not yet returned.
  SnapshotPayload retired_;  ///< Folded snapshots of dismissed shards.
  /// submit_pipelined() calls since the last flush_submits(), in global
  /// submission order; conns' pending_submits index into this.
  std::vector<PipelinedSubmit> pipeline_submits_;
  /// CR-hint cache from the last refresh_cr_hints().  Valid only while
  /// hints_epoch_ == epoch_ (set_topology opens a new epoch and thereby
  /// invalidates every cached hint).  0.0 entries mean "no advisory".
  std::unordered_map<std::uint32_t, double> cr_hints_;  ///< patient -> CR %.
  std::vector<double> shard_advisory_;                  ///< shard -> CR %.
  std::uint64_t hints_epoch_ = ~std::uint64_t{0};       ///< Sentinel: none yet.
};

}  // namespace wbsn::net
