// Sharded reconstruction fabric — the in-process face of the coordinator.
//
//   node -> fabric (Coordinator) -> EngineLink -> shard (engine) -> kern
//
// One ReconstructionEngine owns one slice of the fleet; the fabric
// partitions traffic across N such shards by a consistent-hash ring over
// the stable splitmix64 patient hash (hash_ring.hpp), so a patient's
// windows always land on the same shard (its matrix cache stays warm, its
// per-patient SLO tracker lives in one place) and shards share nothing on
// the hot path.  Each shard keeps its own admission gate, priority lanes,
// shed policy, worker pool, and SLO trackers.
//
// Routing, epochs, composite tickets, the resize migration order, crash
// failover and the conservation accumulator all live in host::Coordinator
// (coordinator.hpp), shared with the cross-machine net::RoutingClient.
// What the fabric adds is what only an in-process transport can offer:
// building EngineLinks from a FabricConfig, direct access to a shard's
// engine, SLO views folded from the engines' real histograms (merged, not
// averaged; the same per lane, plus per-shard and per-patient
// breakdowns), and the reconstruct() batch wrapper.
//
// Threading: single owner.  One thread drives the fabric — submit, poll,
// drain, resize and the snapshots alike; it is not safe to call from
// several threads.  Each shard's engine workers solve concurrently
// behind it.
//
// Determinism contract, inherited and preserved: a window's reconstruction
// depends only on its payload and the FistaConfig, so per-window results
// are bit-identical across shard counts, priority mixes, thread counts
// — and any sequence of live resizes.  Resharding moves
// *where* and *when* a window solves, never *what* it solves to.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "host/coordinator.hpp"
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

/// A ReconstructionEngine in this process, behind the ShardLink verbs.
/// Acks are immediate; a serial engine (threads == 0) solves inside
/// poll_many, snapshot sweeps and drain_patient, on the caller's thread.
class EngineLink final : public ShardLink {
 public:
  explicit EngineLink(const EngineConfig& cfg) : engine_(cfg) {}

  ReconstructionEngine& engine() { return engine_; }

  bool submit(CompressedWindow& window, bool blocking) override;
  bool flush() override { return true; }
  bool poll_many(RingDeque<WindowResult>& out, std::uint64_t owed) override;
  bool snapshot(ShardCounters& counters, RingDeque<WindowResult>* sweep) override;
  bool drain_patient(std::uint32_t patient_id) override {
    engine_.drain_patient(patient_id);
    return true;
  }
  bool extract_slo(std::uint32_t patient_id, std::optional<SloTrackerState>& state) override;
  bool adopt_slo(std::uint32_t patient_id, const SloTrackerState& state,
                 bool& adopted) override;
  bool health() override { return true; }
  void close(bool) override {}

 private:
  ReconstructionEngine engine_;
};

class ReconstructionFabric {
 public:
  explicit ReconstructionFabric(FabricConfig cfg = {});

  ReconstructionFabric(const ReconstructionFabric&) = delete;
  ReconstructionFabric& operator=(const ReconstructionFabric&) = delete;

  /// Shard slots under the current epoch (crash-failed holes included).
  std::size_t shard_count() const { return coord_.shard_count(); }

  /// Routing epoch: starts at 0, incremented by every resize() and
  /// fail_shard().
  std::uint32_t epoch() const { return coord_.epoch(); }

  /// The shard that owns `patient_id` under the current epoch's ring —
  /// a pure function of (patient_id, live shard set, kVnodesPerShard), so
  /// tests and benches can assert routing stability against an
  /// independently built HashRing.
  std::size_t shard_of(std::uint32_t patient_id) const { return coord_.owner(patient_id); }

  /// The engine behind a live shard.  Throws std::out_of_range when
  /// `index` is not one.  Valid until a resize() retires that index.
  ReconstructionEngine& shard(std::size_t index) const;

  // --- Live elasticity -----------------------------------------------------

  /// Reshards to `new_shards` engine shards (clamped to >= 1) under a new
  /// epoch: surviving indices keep their engines (and warm caches), new
  /// indices and crash holes get fresh engines, and removed indices are
  /// retired after the movers are drained and handed off (the
  /// coordinator's migration order).  Expect a resize to take on the order
  /// of the moved patients' and retired shards' backlog.
  ResizeReport resize(int new_shards);

  /// Simulates (or scripts — the chaos harness's crash lever) the abrupt
  /// death of shard `index`: no drain, no SLO handoff.  The ring flips to
  /// a subset ring over the survivors and the engine is destroyed,
  /// abandoning its backlog and unretrieved completions exactly as a
  /// killed process would; every acknowledged window it held unretrieved
  /// counts as `lost` (SloSnapshot::lost).  Its latency histograms and
  /// per-patient trackers die with it.  A later resize() re-provisions the
  /// slot.  Throws std::out_of_range when `index` is not a live shard,
  /// std::invalid_argument when it is the last one standing.
  FailoverReport fail_shard(std::size_t index);

  /// Shards still serving (slots minus crash-failed holes).
  std::size_t live_shard_count() const { return coord_.live_shard_count(); }

  // --- Streaming interface (mirrors ReconstructionEngine) ------------------

  /// Routes the window to its patient's shard under the current epoch.
  /// Returns the composite ticket, or std::nullopt on that shard's
  /// backpressure (other shards' headroom does not help — routing is
  /// stable by design).
  std::optional<std::uint64_t> try_submit(CompressedWindow&& window);

  /// Blocking submit on the owning shard; returns the composite ticket.
  std::uint64_t submit(CompressedWindow window);

  /// One completed window from any shard, or std::nullopt when none is
  /// ready.  Sweeps shards starting from a rotating index so a busy shard
  /// cannot starve the others' completions.
  std::optional<WindowResult> poll() { return coord_.poll(); }

  /// Drains every shard and returns all unretrieved results.
  std::vector<WindowResult> drain() { return coord_.drain(); }

  // --- Aggregate SLO views -------------------------------------------------

  /// Fabric-wide SLO: every live and retired shard's tracker folded into
  /// one histogram, with the counters taken from the coordinator's
  /// conservation books (crash-failed shards contribute counters only —
  /// their histograms died with them).  Approximate while traffic is in
  /// flight; exact once drained.
  SloSnapshot slo_snapshot();

  /// Fabric-wide per-lane SLO (routine vs urgent) over live and retired
  /// shards.  A dead shard's lane split is unknowable, so lanes cover
  /// survivors only.
  SloSnapshot lane_slo_snapshot(cs::WindowPriority priority) const;

  /// Per-shard engine-wide snapshots for the live shards, indexed by
  /// shard.  Retired history appears only in the aggregate views.
  std::vector<ShardSlo> shard_slo_snapshots() const;

  /// Per-patient breakdown across the fleet, sorted by patient_id.  Each
  /// patient lives on exactly one shard (reshard handoffs move the
  /// history with the patient), so this is a concatenation, not a merge.
  std::vector<PatientSlo> patient_slo_snapshots() const;

  // --- Batch wrapper -------------------------------------------------------

  /// Reconstructs the batch across all shards and blocks until done;
  /// results return in input order.  Do not mix with streaming
  /// submissions (the drain would steal them).
  BatchResult reconstruct(std::span<const CompressedWindow> batch);

 private:
  /// Live engines with their shard index.
  std::vector<std::pair<std::size_t, ReconstructionEngine*>> engines() const;

  FabricConfig cfg_;
  Coordinator coord_;
  /// Histograms of retired shards, folded in at retirement so aggregate
  /// and lane percentiles cover the whole topology history.
  SloTracker retired_slo_;
  SloTracker retired_lane_slo_[cs::kPriorityLanes];
};

}  // namespace wbsn::host
