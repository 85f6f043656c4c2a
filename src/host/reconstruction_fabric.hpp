// Sharded reconstruction fabric — the layer between the node fleet and
// the per-shard streaming engines.
//
//   node -> fabric -> shard (engine) -> kern
//
// One ReconstructionEngine owns one slice of the fleet; the fabric
// partitions traffic across N such shards by a consistent-hash ring over
// the stable splitmix64 patient hash (hash_ring.hpp), so a patient's
// windows always land on the same shard (its matrix cache stays warm, its
// per-patient SLO tracker lives in one place) and shards share nothing on
// the hot path — no cross-shard lock, no global queue.  Each shard keeps
// its own admission gate, priority lanes, shed policy, worker pool, and
// SLO trackers; the fabric adds:
//
//   * ring routing (shard_of) that is independent of shard *state*, so
//     adding monitoring or draining one shard never re-routes patients —
//     and, through the ring, nearly independent of shard *count*;
//   * live elasticity: resize(new_shards) opens a new routing epoch.
//     Only the patients whose ring ownership actually changed move
//     (expected fraction ~1/N per single-shard step); each mover is
//     drained on its old shard (in-flight windows complete where they
//     started) and its per-patient SLO history is handed off to the new
//     owner, so the move is invisible in the patient's breakdown.  Shards
//     removed by a shrink are retired: they stay pollable until their
//     last result is retrieved, then their counters are folded into the
//     fabric's reaped accumulators and the engine is destroyed.
//   * fabric-wide submit/try_submit/poll/drain mirroring the engine API
//     (poll sweeps shards round-robin so no shard's completions starve);
//   * composite tickets — epoch | shard | shard-local ticket — unique
//     fabric-wide across any sequence of resizes (see compose_ticket);
//   * aggregate SLO snapshots: per-shard histograms are folded into one
//     tracker (SloTracker::merge_from), so fabric-level p50/p95/p99 come
//     from real merged histograms, not an average of quantiles; the same
//     per lane, plus per-shard and per-patient breakdowns.
//
// Reshard protocol (resize):
//   1. the routing table (ring + shard list + epoch) is swapped atomically
//      under a writer lock — submissions never block behind the reshard
//      for longer than the pointer swap, and every submission routes and
//      tags by exactly one epoch;
//   2. windows already in flight complete on the shard that admitted them;
//      their results stay retrievable and carry their original
//      epoch-tagged ticket (the epoch rides through the engine in
//      CompressedWindow::route_tag);
//   3. each moved patient is drained on its old shard
//      (ReconstructionEngine::drain_patient), then its per-patient tracker
//      object is extracted and adopted by the new owner — the same object,
//      so even retrieves of results still parked on the old shard keep
//      recording into the history that moved.
// Under submissions racing a resize, a patient's breakdown may transiently
// split across two shards (a racing submit can create a fresh tracker on
// the new owner before the handoff arrives; adoption then folds the moved
// history into it).  Submitted/completed/shed counters remain conserved;
// the one permanent casualty of that race is retrieve accounting for
// results already parked on the old shard (they retrieve into the
// orphaned moved tracker), so that patient's breakdown may report a
// residual in_flight.  Engine-wide and fabric aggregate views are
// unaffected.
//
// Determinism contract, inherited and preserved: a window's reconstruction
// depends only on its payload and the FistaConfig, so per-window results
// are bit-identical across shard counts, priority mixes, thread counts,
// batch widths — and any sequence of live resizes.  Resharding moves
// *where* and *when* a window solves, never *what* it solves to.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_set>
#include <vector>

#include "host/hash_ring.hpp"
#include "host/reconstruction_engine.hpp"

namespace wbsn::host {

struct FabricConfig {
  /// Engine shards; clamped to >= 1.  Patient -> shard routing is a pure
  /// function of patient_id, this count, and kVnodesPerShard.
  int shards = 1;
  /// Per-shard engine configuration.  `threads` is the worker count of
  /// EACH shard, so the fabric runs shards * threads workers in total.
  /// `engine.payload_pool` (when set) is shared by every shard — including
  /// engines constructed by later resize() epochs, which inherit the same
  /// shared_ptr through this config — so pooled buffers keep recycling
  /// across the fabric's whole elastic lifetime.
  EngineConfig engine{};
};

/// One shard's SLO view (see ReconstructionFabric::shard_slo_snapshots).
struct ShardSlo {
  std::size_t shard = 0;
  SloSnapshot slo;
};

/// What a resize() did (telemetry; every field is also observable through
/// the SLO/routing accessors).
struct ResizeReport {
  std::uint32_t epoch = 0;          ///< Epoch opened by this resize.
  std::size_t shards_before = 0;
  std::size_t shards_after = 0;
  std::size_t known_patients = 0;   ///< Patients the fabric has routed.
  std::size_t moved_patients = 0;   ///< Ring ownership changed.
  std::size_t slo_handoffs = 0;     ///< Per-patient trackers handed off.
  std::size_t retired_shards = 0;   ///< Removed, still holding results.
  std::size_t reaped_shards = 0;    ///< Previously retired, now destroyed.
};

/// What a fail_shard() did.
struct FailoverReport {
  std::uint32_t epoch = 0;           ///< Failover epoch opened.
  std::size_t failed_shard = 0;
  std::size_t live_shards = 0;       ///< Survivors serving after the flip.
  std::size_t moved_patients = 0;    ///< Re-homed onto survivors.
  std::uint64_t lost_windows = 0;    ///< Destroyed with the shard.
};

class ReconstructionFabric {
 public:
  explicit ReconstructionFabric(FabricConfig cfg = {});
  ~ReconstructionFabric();

  ReconstructionFabric(const ReconstructionFabric&) = delete;
  ReconstructionFabric& operator=(const ReconstructionFabric&) = delete;

  /// Active shards under the current epoch (retired shards excluded).
  std::size_t shard_count() const;

  /// Routing epoch: starts at 0, incremented by every resize().
  std::uint32_t epoch() const;

  /// The shard that owns `patient_id` under the current epoch's ring —
  /// a pure function of (patient_id, shard count, kVnodesPerShard), so
  /// tests and benches can assert routing stability against an
  /// independently built HashRing.  Thread-safe.
  std::size_t shard_of(std::uint32_t patient_id) const;

  /// The engine behind an active shard.  Throws std::out_of_range when
  /// `index` is not an active shard.  The reference is guaranteed valid
  /// only until a resize() retires that shard index (a retired engine is
  /// destroyed once its last result is retrieved): do not hold it across
  /// a possible concurrent resize.
  ReconstructionEngine& shard(std::size_t index);
  const ReconstructionEngine& shard(std::size_t index) const;

  // --- Live elasticity -----------------------------------------------------

  /// Reshards the fabric to `new_shards` engine shards (clamped to >= 1)
  /// under a new epoch.  Concurrent submissions and polls continue
  /// throughout: the routing flip itself is a table swap, after which the
  /// call drains and hands off the moved patients (see the reshard
  /// protocol above), so expect a resize to take on the order of the
  /// moved patients' backlog.  Serialized against itself; safe against
  /// concurrent submit/poll/drain.  No-ops (beyond a fresh epoch and a
  /// reap sweep) when the count is unchanged.
  ResizeReport resize(int new_shards);

  /// Simulates (or scripts — the chaos harness's crash lever) the abrupt
  /// death of shard `index`: no drain, no SLO handoff, no retirement.
  /// The routing table flips to a subset ring over the survivors — only
  /// the dead shard's patients re-home, every survivor keeps its index —
  /// and the engine is destroyed, abandoning its backlog and unretrieved
  /// completions exactly as a killed process would.  Its frozen counters
  /// fold into the fabric's failed accumulators with every acknowledged
  /// window accounted once: retrieved -> completed, shed -> shed, the
  /// remainder -> `lost` (SloSnapshot::lost), so
  /// submitted == completed + shed + lost + in_flight stays exact across
  /// the crash.  The dead shard's latency histograms and per-patient
  /// trackers die with it.  A later resize() may re-provision the slot
  /// with a fresh engine.  Throws std::out_of_range when `index` is not a
  /// live shard, std::invalid_argument when it is the last one standing.
  FailoverReport fail_shard(std::size_t index);

  /// Shards still serving (slots minus crash-failed holes).
  std::size_t live_shard_count() const;

  // --- Composite tickets ---------------------------------------------------

  /// Fabric tickets pack epoch | shard | shard-local ticket.  Local
  /// tickets occupy the low 40 bits (34 years at 1k windows/s/shard), the
  /// owning shard index the next 12 (4096 shards), and the submission
  /// epoch the top 12.  Shard-local tickets are monotone over an engine's
  /// lifetime and an engine is only ever created under a fresh epoch, so
  /// the triple — and therefore the ticket — is unique across any
  /// sequence of resizes until the epoch counter wraps at 4096.
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

  // --- Streaming interface (mirrors ReconstructionEngine) ------------------

  /// Routes the window to its patient's shard under the current epoch.
  /// Returns the composite ticket, or std::nullopt on that shard's
  /// backpressure (other shards' headroom does not help — routing is
  /// stable by design).  Thread-safe.
  std::optional<std::uint64_t> try_submit(CompressedWindow&& window);

  /// Blocking submit on the owning shard; returns the composite ticket.
  std::uint64_t submit(CompressedWindow window);

  /// One completed window from any shard — including shards retired by a
  /// shrink that still hold results — or std::nullopt when none is ready.
  /// Sweeps shards starting from a rotating index so a busy shard cannot
  /// starve the others' completions.  Thread-safe.
  std::optional<WindowResult> poll();

  /// Drains every shard (active and retired) and returns all unretrieved
  /// results (per-shard completion order, shard-major).  Quiesced retired
  /// shards are reaped afterwards.  Like the engine's drain(), do not
  /// race it against concurrent submissions you care to keep.
  std::vector<WindowResult> drain();

  /// Windows in flight across all shards, active and retired.
  std::size_t in_flight() const;

  // --- Aggregate SLO views -------------------------------------------------

  /// Fabric-wide SLO: every shard's tracker — active, retired, and
  /// already-reaped (their counters outlive them in the fabric's
  /// accumulators) — folded into one histogram.  Approximate while
  /// traffic is in flight (same caveat as SloTracker::snapshot()); exact
  /// once drained.
  SloSnapshot slo_snapshot() const;

  /// Fabric-wide per-lane SLO (routine vs urgent), folded the same way.
  SloSnapshot lane_slo_snapshot(cs::WindowPriority priority) const;

  /// Per-shard engine-wide snapshots for the ACTIVE shards, indexed by
  /// shard.  Retired/reaped history appears only in the aggregate views.
  std::vector<ShardSlo> shard_slo_snapshots() const;

  /// Per-patient breakdown across the fleet, sorted by patient_id.  Each
  /// patient lives on exactly one shard (reshard handoffs move the
  /// tracker with the patient), so this is a concatenation, not a merge —
  /// except transiently under submissions racing a resize (see the
  /// reshard protocol above), when a patient may appear twice.
  std::vector<PatientSlo> patient_slo_snapshots() const;

  // --- Batch wrapper -------------------------------------------------------

  /// Reconstructs the batch across all shards and blocks until done;
  /// results return in input order.  Not reentrant (guarded internally);
  /// do not call concurrently with streaming submissions.
  BatchResult reconstruct(std::span<const CompressedWindow> batch);

 private:
  /// A shard removed by a shrink: out of the ring, still owed the results
  /// parked in its completion list.
  struct RetiredShard {
    std::size_t index = 0;  ///< Shard index it served under (for tickets).
    std::shared_ptr<ReconstructionEngine> engine;
  };

  /// Stable (index, engine) view of every shard currently holding work or
  /// results — active shards first, then retired ones — copied under the
  /// reader lock for callers that block for a long time (drain) or
  /// allocate anyway (snapshots) and so must not hold it.
  std::vector<std::pair<std::size_t, std::shared_ptr<ReconstructionEngine>>> engines_snapshot()
      const;

  /// Records a successfully submitted patient in the registry that
  /// resize() consults to find movers.
  void note_patient(std::uint32_t patient_id);

  /// Destroys retired shards whose work is fully retrieved, folding their
  /// counters into the reaped accumulators first.  Caller must hold
  /// control_mutex_; takes the topology writer lock itself.
  std::size_t reap_quiesced_locked();

  FabricConfig cfg_;

  /// Guards the routing table: ring_, epoch_, active_, retired_.  Readers
  /// (submit/poll/drain/snapshots) take it shared and copy the
  /// shared_ptrs they need; resize() takes it exclusive only for the
  /// table swap, never while draining or solving.
  mutable std::shared_mutex topology_mutex_;
  std::uint32_t epoch_ = 0;
  HashRing ring_;
  std::vector<std::shared_ptr<ReconstructionEngine>> active_;
  std::vector<RetiredShard> retired_;

  /// Serializes resize() calls (and the reap sweeps they run).
  std::mutex control_mutex_;

  /// Counters of reaped shards, folded in just before engine destruction
  /// so aggregate snapshots stay conserved across the whole topology
  /// history: reaped_slo_ holds the engine-wide counters,
  /// reaped_lane_slo_[0]/[1] the routine/urgent lanes.  Written only
  /// under the exclusive topology lock; read under the shared lock.
  SloTracker reaped_slo_;
  SloTracker reaped_lane_slo_[cs::kPriorityLanes];

  /// Counters frozen out of crash-failed shards (fail_shard), folded here
  /// because a dead engine cannot be merged: its histograms are gone, and
  /// its unretrieved windows must surface as `lost`, which no tracker
  /// records.  Engine-wide only — a dead shard's lane split below the
  /// shed/lost line is unknowable, matching the wire client.  Written only
  /// under the exclusive topology lock; read under the shared lock.
  struct FailedCounters {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;  ///< Retrieved before the crash.
    std::uint64_t shed_routine = 0;
    std::uint64_t shed_urgent = 0;
    std::uint64_t rejected = 0;
    std::uint64_t deadline_violations = 0;
    std::uint64_t lost = 0;
  };
  FailedCounters failed_;

  /// Every patient_id the fabric has successfully routed; resize() scans
  /// it to find the patients whose ring ownership changed.  A few bytes
  /// per patient for the fabric's lifetime.
  mutable std::mutex patients_mutex_;
  std::unordered_set<std::uint32_t> patients_;

  std::atomic<std::size_t> next_poll_shard_{0};
  std::mutex batch_mutex_;  ///< Serializes reconstruct() calls.
};

}  // namespace wbsn::host
