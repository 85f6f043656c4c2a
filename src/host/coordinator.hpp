// Coordinator — the one routing/epoch/migration/failover core behind both
// the in-process fabric (ReconstructionFabric over EngineLinks) and the
// cross-machine client (net::RoutingClient over SocketLinks).
//
//   node -> coordinator -> ShardLink -> shard (engine) -> kern
//
// The coordinator decides where a window goes and how it is accounted; a
// ShardLink only carries verbs to one shard.  The coordinator owns:
//
//   * a consistent-hash ring per epoch (hash_ring.hpp), kept for its
//     lifetime, so a result polled after any number of reshards composes
//     the ticket its submit returned (epoch | shard | shard-local ticket);
//   * the registry of every patient submitted, scanned for movers;
//   * resize, in this order: flip the ring (nothing routes to a leaving
//     shard from here on), find the patients whose owning link changed,
//     and per mover drain it on the old owner, sweep the old owner's
//     parked results (so their retrieves land in the history that moves),
//     extract its SLO state and adopt it on the new owner; then retire the
//     leaving shards synchronously (drain, fold final counters, BYE);
//   * fail_shard: a subset ring over the survivors (only the dead shard's
//     patients move, every survivor keeps its index) and the dead shard's
//     books frozen from the coordinator's own mirrors of what crossed the
//     link — acknowledged-but-never-retrieved windows become `lost`, so
//     submitted == completed + shed + rejected + lost survives crashes;
//   * one conservation accumulator for departed shards, retired or failed;
//   * the pending-results queue and the poll sweep (poll never blocks).
//
// Threading: single owner.  One thread drives a Coordinator; it holds no
// mutex.  Shards stay multi-threaded behind their links.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "host/hash_ring.hpp"
#include "host/reconstruction_engine.hpp"
#include "host/work_queue.hpp"

namespace wbsn::host {

/// One shard's counters, or a fleet's summed: the conservation audit
/// surface.  `lost` is coordinator bookkeeping only (a dead shard cannot
/// report its own losses).
struct ShardCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t retrieved = 0;
  std::uint64_t shed_routine = 0;
  std::uint64_t shed_urgent = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_violations = 0;
  std::uint64_t unsolved = 0;  ///< Submitted, not yet solved.
  std::uint64_t ready = 0;     ///< Completed results awaiting poll.
  std::uint64_t lost = 0;      ///< Acknowledged by a shard that died first.

  ShardCounters& operator+=(const ShardCounters& s);
};

/// The counters of an engine in this process.
ShardCounters engine_counters(const ReconstructionEngine& engine);

/// The answer to one submitted window.
struct SubmitAck {
  enum class Status : std::uint8_t { kAccepted, kRejected, kLost };
  Status status = Status::kLost;
  std::uint64_t local_ticket = 0;  ///< Shard-local; set when accepted.
};

/// Transport to one shard: verbs only, no ring, epoch, ticket, registry or
/// counter folding.  A verb returns false when the shard did not answer;
/// the coordinator decides whether that is a failover.
class ShardLink {
 public:
  virtual ~ShardLink() = default;

  /// Hands one epoch-tagged window to the shard.  `blocking` admission
  /// waits out backpressure and never sheds or rejects.  The ack may be
  /// deferred (pipelining).  An in-process link moves the window into the
  /// engine; a wire link encodes a copy and leaves it to the caller.
  /// False: the link is dead and the window was not taken.
  virtual bool submit(CompressedWindow& window, bool blocking) = 0;
  /// Puts staged windows on their way and waits for every ack; false when
  /// the link died with acks outstanding (they resolve as kLost).
  virtual bool flush() = 0;
  /// Moves the acks received so far, and kLost for windows the link
  /// dropped, into `out` in submission order.  No I/O.
  void take_acks(std::vector<SubmitAck>& out) {
    out.insert(out.end(), acks_.begin(), acks_.end());
    acks_.clear();
  }
  /// Moves the results the link has received but not handed over (a wire
  /// link's SUBMIT_BATCH_ACKs carry them) into `out`.  No I/O.
  void take_results(RingDeque<WindowResult>& out) {
    for (; !results_.empty(); results_.pop_front()) out.push_back(std::move(results_.front()));
  }
  /// Appends finished results without waiting on the shard.  `owed`
  /// counts acknowledged windows not yet retrieved (a wire link keeps a
  /// long-poll armed only while some are).  A serial in-process shard
  /// solves one window inline, only while `out` is empty.
  virtual bool poll_many(RingDeque<WindowResult>& out, std::uint64_t owed) = 0;
  /// The shard's counters.  With `sweep`, first moves into it at least
  /// every result parked now (an in-process shard hands over everything,
  /// solving what is left); the counters then count what remains.
  virtual bool snapshot(ShardCounters& counters, RingDeque<WindowResult>* sweep) = 0;
  /// Waits until nothing of the patient is unsolved on the shard.
  virtual bool drain_patient(std::uint32_t patient_id) = 0;
  /// Removes the patient's SLO state from the shard (nullopt: untracked).
  virtual bool extract_slo(std::uint32_t patient_id, std::optional<SloTrackerState>& state) = 0;
  /// Adds `state` to the patient's tracker; `adopted` is false when the
  /// shard dropped it (its tracker map is at its cap).
  virtual bool adopt_slo(std::uint32_t patient_id, const SloTrackerState& state,
                         bool& adopted) = 0;
  /// Ends the link; with `bye`, dismisses the shard first.
  virtual void close(bool bye) = 0;

 protected:
  std::vector<SubmitAck> acks_;      ///< Delivered, not yet taken.
  RingDeque<WindowResult> results_;  ///< Delivered, not yet taken.
};

/// What a resize() did.
struct ResizeReport {
  std::uint32_t epoch = 0;         ///< Epoch opened by this resize.
  std::size_t shards_before = 0;
  std::size_t shards_after = 0;
  std::size_t known_patients = 0;  ///< Patients the coordinator has routed.
  std::size_t moved_patients = 0;  ///< Owning shard changed.
  std::size_t slo_handoffs = 0;    ///< Per-patient SLO states handed off.
  std::size_t retired_shards = 0;  ///< Drained, folded and dismissed.
};

/// What a fail_shard() did.
struct FailoverReport {
  std::uint32_t epoch = 0;         ///< Failover epoch opened.
  std::size_t failed_shard = 0;
  std::size_t live_shards = 0;     ///< Survivors serving after the flip.
  std::size_t moved_patients = 0;  ///< Re-homed onto survivors.
  std::uint64_t lost_windows = 0;  ///< Acknowledged, never retrieved.
};

struct CoordinatorConfig {
  /// Fail a shard over as soon as a verb to it fails, re-routing a window
  /// still in hand to the survivor that now owns it.
  bool auto_failover = false;
  /// Receives a window once a wire link has encoded its copy; null drops
  /// it.  In-process links consume windows, so the fabric leaves it unset.
  std::shared_ptr<PayloadPool> payload_pool;
};

class Coordinator {
 public:
  /// Composite tickets: the submission epoch in the top 12 bits, the shard
  /// index in the next 12 (4096 shards), the shard-local ticket in the low
  /// 40 (34 years at 1k windows/s/shard).  Local tickets are monotone per
  /// shard and a slot only gets a fresh shard under a fresh epoch, so
  /// tickets stay unique across resizes until the epoch wraps at 4096.
  static constexpr unsigned kLocalTicketBits = 40;
  static constexpr unsigned kShardBits = 12;
  static constexpr unsigned kEpochBits = 12;
  static std::uint64_t compose_ticket(std::uint32_t epoch, std::size_t shard,
                                      std::uint64_t local) {
    return (static_cast<std::uint64_t>(epoch & ((1u << kEpochBits) - 1))
            << (kLocalTicketBits + kShardBits)) |
           (static_cast<std::uint64_t>(shard) << kLocalTicketBits) | local;
  }
  static std::uint32_t ticket_epoch(std::uint64_t ticket) {
    return static_cast<std::uint32_t>(ticket >> (kLocalTicketBits + kShardBits)) &
           ((1u << kEpochBits) - 1);
  }
  static std::size_t ticket_shard(std::uint64_t ticket) {
    return static_cast<std::size_t>(ticket >> kLocalTicketBits) & ((1u << kShardBits) - 1);
  }
  static std::uint64_t ticket_local(std::uint64_t ticket) {
    return ticket & ((std::uint64_t{1} << kLocalTicketBits) - 1);
  }

  explicit Coordinator(CoordinatorConfig cfg = {}) : cfg_(std::move(cfg)) {}
  ~Coordinator() { close(false); }

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Starts over at epoch 0 on `links` (index == shard index).
  void open(std::vector<std::unique_ptr<ShardLink>> links);

  /// Slots, failed ones included: index identity keeps tickets stable.
  std::size_t shard_count() const { return slots_.size(); }
  std::size_t live_shard_count() const;
  std::uint32_t epoch() const { return epoch_; }
  std::size_t owner(std::uint32_t patient_id) const { return rings_[epoch_].owner(patient_id); }
  /// The link behind a live slot; nullptr for a failed or absent one.
  ShardLink* link(std::size_t shard) const {
    return shard < slots_.size() ? slots_[shard].link.get() : nullptr;
  }

  /// Submits to the patient's owner and waits for the ack: the composite
  /// ticket, or nullopt when rejected or the link died.  With
  /// auto_failover, a window whose shard died before acknowledging it
  /// re-routes to the new owner (it never entered the dead shard's books).
  std::optional<std::uint64_t> submit(CompressedWindow& window, bool blocking);
  /// Pipelined blocking-admission submit; the ticket surfaces at the next
  /// flush_submits().  False only when the owner's link is dead.
  bool submit_pipelined(CompressedWindow&& window);
  /// One entry per submit_pipelined() since the last flush, in order: the
  /// ticket, or nullopt when rejected or lost with its link (never retried).
  std::vector<std::optional<std::uint64_t>> flush_submits();

  /// One result in arrival order, or nullopt.  Sweeps the links from a
  /// rotating start only when the queue is empty.
  std::optional<WindowResult> poll();
  /// Drains every live shard; returns everything not yet retrieved.
  std::vector<WindowResult> drain();

  /// One slot of the next topology: a current slot's link (`keep`), or a
  /// fresh one.
  struct NextSlot {
    static constexpr std::size_t kFresh = ~std::size_t{0};
    std::size_t keep = kFresh;
    std::unique_ptr<ShardLink> fresh;
  };
  /// Opens a new epoch over `next`.  Live slots not kept retire (their
  /// links go to `retired` when given); failed slots are dropped.  False
  /// when a migration or retirement verb failed; the flip stands.
  bool resize(std::vector<NextSlot> next, ResizeReport& report,
              std::vector<std::unique_ptr<ShardLink>>* retired = nullptr);
  /// Declares `shard` dead and re-homes its patients.  False when it is
  /// not a live slot or is the last one.
  bool fail_shard(std::size_t shard, FailoverReport* report = nullptr);

  /// Departed shards' folded counters plus every live shard's snapshot.
  ShardCounters aggregate();
  /// The patient's SLO state on its owner (extracted and adopted straight
  /// back); nullopt when untracked or unreachable.
  std::optional<SloTrackerState> patient_slo_state(std::uint32_t patient_id);
  /// Closes every link, with `bye` dismissing the shards first.
  void close(bool bye);

 private:
  struct Slot {
    explicit Slot(std::unique_ptr<ShardLink> l) : link(std::move(l)) {}
    std::unique_ptr<ShardLink> link;  ///< Null once failed.
    // Mirrors of the shard's books from what crossed the link: exactly
    // what a crash makes unknowable shard-side.
    std::uint64_t acked = 0;
    std::uint64_t retrieved = 0;
    std::uint64_t rejected = 0;
    RingDeque<std::size_t> unacked;  ///< Indexes into submits_, in order.
  };

  struct PendingSubmit {
    std::uint32_t epoch = 0;
    std::size_t shard = 0;
    bool resolved = false;
    std::optional<std::uint64_t> ticket;
  };

  /// Tags and hands the window to `shard` (its owner); records it in
  /// submits_.
  bool stage(CompressedWindow& window, bool blocking, std::size_t shard);
  /// Flushes slot `shard` and resolves its acks; false when failed or dead.
  bool flush_slot(std::size_t shard);
  /// Resolves the acks the link has delivered (no I/O).
  void take_acks(Slot& slot);
  /// Resolves every unacknowledged window of `slot` as lost.
  void fail_unacked(Slot& slot);
  /// Composes tickets for the results pending_ gained past `before`,
  /// crediting them to `credit`'s mirror (if any).
  void adopt_results(Slot* credit, std::size_t before);
  /// Snapshots with a sweep until the shard holds nothing parked (and,
  /// with `quiesce`, nothing unsolved).
  bool settle(ShardLink& link, Slot* credit, ShardCounters& counters, bool quiesce);
  void on_link_failure(std::size_t shard) {
    if (cfg_.auto_failover) (void)fail_shard(shard);
  }

  CoordinatorConfig cfg_;
  std::vector<Slot> slots_;  ///< Index == shard index.
  std::uint32_t epoch_ = 0;
  std::vector<HashRing> rings_;                 ///< rings_[e]: epoch e's ring.
  std::unordered_set<std::uint32_t> patients_;  ///< Ever-submitted ids.
  RingDeque<WindowResult> pending_;             ///< Retrieved, not yet returned.
  std::size_t next_poll_ = 0;                   ///< Rotating sweep start.
  std::vector<PendingSubmit> submits_;          ///< Since the last flush_submits().
  std::vector<SubmitAck> acks_;                 ///< take_acks() scratch.
  ShardCounters departed_;                      ///< Retired and failed shards.
};

}  // namespace wbsn::host
