// Consistent-hash ring for patient -> shard routing.
//
// Mod-N routing (splitmix64(patient_id) % shards) re-routes almost every
// patient when the shard count changes: a fleet-wide cache flush and a
// fleet-wide SLO-history split on every elastic resize.  The ring fixes
// the blast radius: each shard owns `vnodes_per_shard` pseudo-random
// points on a 64-bit circle, a patient is owned by the first virtual node
// at or clockwise of its own hash point, and a virtual node's position is
// a pure function of (shard index, replica index) — independent of the
// shard *count*.  Growing from N to N+1 shards therefore only inserts the
// new shard's points: the only patients that move are the ones those new
// points capture (expected fraction 1/(N+1)); every other patient keeps
// its shard, its warm sensing-matrix cache, and its SLO history.
// Shrinking removes exactly the retired shards' points, scattering only
// their patients across the survivors.
//
// Everything here is deterministic: two rings built with the same
// (shards, vnodes_per_shard) are identical, so routing can be recomputed
// anywhere (tests, benches, a future thin network client) without asking
// the fabric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wbsn::host {

/// splitmix64 finalizer: a fast, well-mixed stable hash.  patient_id is a
/// dense small integer in most fleets; using it raw would stripe patients
/// in lockstep with id-assignment order, so mix first.
std::uint64_t splitmix64(std::uint64_t x);

/// Virtual nodes per shard on every fleet ring (the in-process fabric, the
/// RoutingClient, and any audit tool).  More nodes smooth the load split
/// and the per-resize move fraction toward the ideal 1/N at the cost of a
/// slightly larger routing table.  It is a constant, not a knob: rings
/// built with different values disagree on placement.
inline constexpr std::size_t kVnodesPerShard = 64;

class HashRing {
 public:
  /// An empty ring owns nothing; owner() must not be called on it.
  HashRing() = default;

  /// Builds the ring for `shards` shards (indices 0..shards-1), each
  /// contributing `vnodes_per_shard` virtual nodes (clamped to >= 1).
  HashRing(std::size_t shards, std::size_t vnodes_per_shard);

  /// Builds the ring over an explicit (not necessarily contiguous) set of
  /// shard indices.  Because a virtual node's position depends only on
  /// (shard, replica), a ring over {0,1,3} is exactly the {0,1,2,3} ring
  /// with shard 2's points deleted: crash failover re-homes *only* the
  /// dead shard's patients, and every survivor keeps its index — which is
  /// what keeps composite tickets and per-shard SLO history valid across
  /// a failover epoch.
  HashRing(const std::vector<std::size_t>& shard_ids, std::size_t vnodes_per_shard);

  std::size_t shards() const { return shards_; }
  std::size_t vnodes_per_shard() const { return vnodes_per_shard_; }
  bool empty() const { return ring_.empty(); }

  /// The patient's point on the 64-bit circle.
  static std::uint64_t patient_point(std::uint32_t patient_id) {
    return splitmix64(patient_id);
  }

  /// Virtual-node position for (shard, replica): a pure function of its
  /// arguments, which is what makes the ring consistent across resizes.
  static std::uint64_t vnode_point(std::size_t shard, std::size_t replica);

  /// The shard owning `patient_id`: the first virtual node at or after the
  /// patient's point, wrapping at the top of the circle.
  std::size_t owner(std::uint32_t patient_id) const {
    return owner_of_point(patient_point(patient_id));
  }

  std::size_t owner_of_point(std::uint64_t point) const;

 private:
  struct Vnode {
    std::uint64_t point = 0;
    std::uint32_t shard = 0;
  };

  std::vector<Vnode> ring_;  ///< Sorted by (point, shard).
  std::size_t shards_ = 0;
  std::size_t vnodes_per_shard_ = 0;
};

}  // namespace wbsn::host
