#include "host/reconstruction_fabric.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace wbsn::host {
namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

ReconstructionFabric::ReconstructionFabric(FabricConfig cfg) : cfg_(cfg) {
  const int shards = std::max(1, cfg_.shards);
  ring_ = HashRing(static_cast<std::size_t>(shards), kVnodesPerShard);
  active_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    active_.push_back(std::make_shared<ReconstructionEngine>(cfg_.engine));
  }
  reaped_slo_.configure(cfg_.engine.slo);
  for (auto& tracker : reaped_lane_slo_) tracker.configure(cfg_.engine.slo);
}

ReconstructionFabric::~ReconstructionFabric() = default;

std::size_t ReconstructionFabric::shard_count() const {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  return active_.size();
}

std::uint32_t ReconstructionFabric::epoch() const {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  return epoch_;
}

std::size_t ReconstructionFabric::shard_of(std::uint32_t patient_id) const {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  return ring_.owner(patient_id);
}

ReconstructionEngine& ReconstructionFabric::shard(std::size_t index) {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  if (index >= active_.size() || !active_[index]) {
    throw std::out_of_range("shard index not active");
  }
  return *active_[index];
}

const ReconstructionEngine& ReconstructionFabric::shard(std::size_t index) const {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  if (index >= active_.size() || !active_[index]) {
    throw std::out_of_range("shard index not active");
  }
  return *active_[index];
}

std::size_t ReconstructionFabric::live_shard_count() const {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  std::size_t live = 0;
  for (const auto& engine : active_) {
    if (engine) ++live;
  }
  return live;
}

void ReconstructionFabric::note_patient(std::uint32_t patient_id) {
  std::lock_guard<std::mutex> lk(patients_mutex_);
  patients_.insert(patient_id);
}

std::optional<std::uint64_t> ReconstructionFabric::try_submit(CompressedWindow&& window) {
  // The shared lock is held across the engine call: a resize's table swap
  // therefore happens-before or happens-after any submission, never in
  // between routing and admission — an admitted window is always visible
  // to the reshard's drain, and a retired shard can never receive one.
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  const std::size_t shard = ring_.owner(window.patient_id);
  window.route_tag = epoch_;
  const std::uint32_t patient_id = window.patient_id;
  const auto local = active_[shard]->try_submit(std::move(window));
  if (!local.has_value()) return std::nullopt;
  note_patient(patient_id);
  return compose_ticket(epoch_, shard, *local);
}

std::uint64_t ReconstructionFabric::submit(CompressedWindow window) {
  // Like try_submit, the shared lock covers the engine call; a submit
  // waiting out backpressure stalls a concurrent resize's table swap (the
  // shard's workers drain the backlog without any fabric lock, so both
  // always make progress), which keeps the no-straggler guarantee above.
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  const std::size_t shard = ring_.owner(window.patient_id);
  window.route_tag = epoch_;
  const std::uint32_t patient_id = window.patient_id;
  const std::uint64_t local = active_[shard]->submit(std::move(window));
  note_patient(patient_id);
  return compose_ticket(epoch_, shard, local);
}

std::vector<std::pair<std::size_t, std::shared_ptr<ReconstructionEngine>>>
ReconstructionFabric::engines_snapshot() const {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  std::vector<std::pair<std::size_t, std::shared_ptr<ReconstructionEngine>>> out;
  out.reserve(active_.size() + retired_.size());
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i]) out.emplace_back(i, active_[i]);  // Skip crash-failed holes.
  }
  for (const auto& retired : retired_) out.emplace_back(retired.index, retired.engine);
  return out;
}

std::optional<WindowResult> ReconstructionFabric::poll() {
  // Swept under the shared lock (like the submit paths) rather than via a
  // snapshot copy: polling is the hot retrieval path and usually finds
  // nothing, so it must not pay an allocation + refcount churn per call.
  // A resize's table swap simply waits out the sweep.
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  const std::size_t total = active_.size() + retired_.size();
  const auto engine_at = [&](std::size_t i) -> std::pair<std::size_t, ReconstructionEngine*> {
    if (i < active_.size()) return {i, active_[i].get()};
    const auto& retired = retired_[i - active_.size()];
    return {retired.index, retired.engine.get()};
  };
  const std::size_t start = next_poll_shard_.fetch_add(1, std::memory_order_relaxed) % total;
  for (std::size_t i = 0; i < total; ++i) {
    const auto [index, engine] = engine_at((start + i) % total);
    if (engine == nullptr) continue;  // Crash-failed hole: nothing to give.
    if (auto result = engine->poll()) {
      result->ticket = compose_ticket(result->route_tag, index, result->ticket);
      return result;
    }
  }
  return std::nullopt;
}

std::vector<WindowResult> ReconstructionFabric::drain() {
  std::vector<WindowResult> out;
  for (const auto& [index, engine] : engines_snapshot()) {
    auto results = engine->drain();
    out.reserve(out.size() + results.size());
    for (auto& result : results) {
      result.ticket = compose_ticket(result.route_tag, index, result.ticket);
      out.push_back(std::move(result));
    }
  }
  // A full drain leaves retired shards with nothing left to give back.
  std::lock_guard<std::mutex> control(control_mutex_);
  reap_quiesced_locked();
  return out;
}

std::size_t ReconstructionFabric::in_flight() const {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  std::size_t total = 0;
  for (const auto& engine : active_) {
    if (engine) total += engine->in_flight();
  }
  for (const auto& retired : retired_) total += retired.engine->in_flight();
  return total;
}

ResizeReport ReconstructionFabric::resize(int new_shards) {
  std::lock_guard<std::mutex> control(control_mutex_);
  ResizeReport report;
  const auto target = static_cast<std::size_t>(std::max(1, new_shards));

  // Topology only changes under control_mutex_, so these reads are stable
  // for the whole resize even without the reader lock.
  std::vector<std::shared_ptr<ReconstructionEngine>> old_active;
  HashRing old_ring;
  {
    std::shared_lock<std::shared_mutex> lk(topology_mutex_);
    old_active = active_;
    old_ring = ring_;
  }
  const std::size_t before = old_active.size();
  report.shards_before = before;
  report.shards_after = target;

  HashRing new_ring(target, kVnodesPerShard);

  // New shard list: surviving engines keep their index (and their warm
  // caches), new indices get fresh engines, removed indices retire.  A
  // crash-failed hole inside the target range is re-provisioned with a
  // fresh engine — resize() is also the recovery path that restores
  // capacity after a failover.
  std::vector<std::shared_ptr<ReconstructionEngine>> new_active;
  new_active.reserve(target);
  for (std::size_t i = 0; i < target; ++i) {
    new_active.push_back(i < before && old_active[i]
                             ? old_active[i]
                             : std::make_shared<ReconstructionEngine>(cfg_.engine));
  }
  std::vector<RetiredShard> newly_retired;
  for (std::size_t i = target; i < before; ++i) {
    if (old_active[i]) newly_retired.push_back({i, old_active[i]});
  }
  report.retired_shards = newly_retired.size();

  // Flip.  One writer critical section: every submission before it was
  // fully admitted under the old table (the submit paths hold the reader
  // lock across admission), every one after it routes and epoch-tags by
  // the new table.
  {
    std::unique_lock<std::shared_mutex> lk(topology_mutex_);
    ++epoch_;
    ring_ = new_ring;
    active_ = new_active;
    retired_.insert(retired_.end(), std::make_move_iterator(newly_retired.begin()),
                    std::make_move_iterator(newly_retired.end()));
    report.epoch = epoch_;
  }

  // Movers are computed after the flip, so the registry is guaranteed to
  // contain every patient admitted under the old epoch.  Patients first
  // seen after the flip route by the new ring already; scanning them too
  // is a harmless no-op (nothing pending, nothing to extract, on their
  // old-ring shard).
  std::vector<std::uint32_t> moved;
  {
    std::lock_guard<std::mutex> lk(patients_mutex_);
    report.known_patients = patients_.size();
    for (const std::uint32_t patient : patients_) {
      if (old_ring.owner(patient) != new_ring.owner(patient)) moved.push_back(patient);
    }
  }
  std::sort(moved.begin(), moved.end());  // Deterministic handoff order.
  report.moved_patients = moved.size();

  // Drain + handoff, outside every fabric lock: ingest to unmoved
  // patients continues at full rate while the movers' backlogs finish
  // where they started.
  for (const std::uint32_t patient : moved) {
    const auto& source = old_active[old_ring.owner(patient)];
    source->drain_patient(patient);
    if (auto tracker = source->extract_patient_slo(patient)) {
      const std::size_t destination = new_ring.owner(patient);
      if (new_active[destination]->adopt_patient_slo(patient, std::move(tracker))) {
        ++report.slo_handoffs;
      }
    }
  }

  report.reaped_shards = reap_quiesced_locked();
  return report;
}

FailoverReport ReconstructionFabric::fail_shard(std::size_t index) {
  std::lock_guard<std::mutex> control(control_mutex_);
  FailoverReport report;
  report.failed_shard = index;

  std::vector<std::shared_ptr<ReconstructionEngine>> old_active;
  HashRing old_ring;
  {
    std::shared_lock<std::shared_mutex> lk(topology_mutex_);
    old_active = active_;
    old_ring = ring_;
  }
  if (index >= old_active.size() || !old_active[index]) {
    throw std::out_of_range("fail_shard: not a live shard");
  }
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < old_active.size(); ++i) {
    if (i != index && old_active[i]) survivors.push_back(i);
  }
  if (survivors.empty()) {
    throw std::invalid_argument("fail_shard: no survivors to re-home onto");
  }
  report.live_shards = survivors.size();

  // Subset ring over the survivors: vnode positions depend only on
  // (shard, replica), so this is the old ring minus the dead shard's
  // points — exactly its patients re-home, everyone else stays put, and
  // every survivor keeps the index its tickets were composed with.
  HashRing new_ring(survivors, kVnodesPerShard);

  // Flip, leaving a hole at the dead slot (indices are ticket identity).
  // From here on nothing can reach the dead engine: no route resolves to
  // it, and every sweep skips null slots — so submitted/shed/retrieved
  // are frozen the moment the writer lock releases.
  std::shared_ptr<ReconstructionEngine> dead;
  {
    std::unique_lock<std::shared_mutex> lk(topology_mutex_);
    ++epoch_;
    ring_ = new_ring;
    dead = std::move(active_[index]);
    report.epoch = epoch_;
  }

  {
    std::lock_guard<std::mutex> lk(patients_mutex_);
    for (const std::uint32_t patient : patients_) {
      if (old_ring.owner(patient) == index) ++report.moved_patients;
    }
  }

  // Freeze-and-fold, the crash contract: results never retrieved are
  // unrecoverable, so `retrieved` stands in for completed and the rest of
  // the admitted windows are lost.  Workers may still be solving while
  // this snapshot is read; that can only migrate windows between the shed
  // and lost buckets (both terms of the same identity), never change the
  // total — completed-but-unretrieved work is lost either way.
  const SloSnapshot snap = dead->slo().snapshot();
  const std::uint64_t shed = snap.shed_routine + snap.shed_urgent;
  const std::uint64_t retrieved =
      snap.submitted - std::min(snap.submitted, shed + snap.in_flight);
  report.lost_windows = snap.in_flight;
  {
    std::unique_lock<std::shared_mutex> lk(topology_mutex_);
    failed_.submitted += snap.submitted;
    failed_.completed += retrieved;
    failed_.shed_routine += snap.shed_routine;
    failed_.shed_urgent += snap.shed_urgent;
    failed_.rejected += snap.rejected;
    failed_.deadline_violations += snap.deadline_violations;
    failed_.lost += snap.in_flight;
  }
  // Destroy outside every lock: the destructor joins the workers and
  // abandons the backlog — the in-process equivalent of kill -9.  The
  // per-patient trackers and latency histograms die here.
  dead.reset();
  return report;
}

std::size_t ReconstructionFabric::reap_quiesced_locked() {
  std::unique_lock<std::shared_mutex> lk(topology_mutex_);
  std::size_t reaped = 0;
  for (auto it = retired_.begin(); it != retired_.end();) {
    ReconstructionEngine& engine = *it->engine;
    // Quiesced: nothing unsolved and nothing unretrieved.  No new work can
    // arrive (the shard left the routing table at its retirement flip), so
    // the counters are final; fold them into the reaped accumulators and
    // let the engine go.
    if (engine.in_flight() != 0 || engine.ready_results() != 0) {
      ++it;
      continue;
    }
    reaped_slo_.merge_from(engine.slo());
    reaped_lane_slo_[0].merge_from(engine.lane_slo(cs::WindowPriority::kRoutine));
    reaped_lane_slo_[1].merge_from(engine.lane_slo(cs::WindowPriority::kUrgent));
    it = retired_.erase(it);
    ++reaped;
  }
  return reaped;
}

SloSnapshot ReconstructionFabric::slo_snapshot() const {
  SloTracker merged(cfg_.engine.slo);
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  for (const auto& engine : active_) {
    if (engine) merged.merge_from(engine->slo());
  }
  for (const auto& retired : retired_) merged.merge_from(retired.engine->slo());
  // reaped_slo_ and failed_ are only written under the exclusive topology
  // lock, so the shared lock held here makes these reads safe.
  merged.merge_from(reaped_slo_);
  SloSnapshot snap = merged.snapshot();
  // Crash-failed shards contribute raw counters, not a mergeable tracker:
  // their histograms died with them, their unretrieved windows are `lost`,
  // and their in-flight is zero by definition (nothing is coming back).
  snap.submitted += failed_.submitted;
  snap.completed += failed_.completed;
  snap.shed_routine += failed_.shed_routine;
  snap.shed_urgent += failed_.shed_urgent;
  snap.rejected += failed_.rejected;
  snap.deadline_violations += failed_.deadline_violations;
  snap.lost = failed_.lost;
  return snap;
}

SloSnapshot ReconstructionFabric::lane_slo_snapshot(cs::WindowPriority priority) const {
  SloTracker merged(cfg_.engine.slo);
  const std::size_t lane = priority == cs::WindowPriority::kUrgent ? 1 : 0;
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  for (const auto& engine : active_) {
    if (engine) merged.merge_from(engine->lane_slo(priority));
  }
  for (const auto& retired : retired_) merged.merge_from(retired.engine->lane_slo(priority));
  merged.merge_from(reaped_lane_slo_[lane]);
  // No failed_ fold here: a dead shard's lane split below the shed/lost
  // line is unknowable (see FailedCounters) — lane views cover survivors.
  return merged.snapshot();
}

std::vector<ShardSlo> ReconstructionFabric::shard_slo_snapshots() const {
  std::vector<std::shared_ptr<ReconstructionEngine>> engines;
  {
    std::shared_lock<std::shared_mutex> lk(topology_mutex_);
    engines = active_;
  }
  std::vector<ShardSlo> out;
  out.reserve(engines.size());
  for (std::size_t shard = 0; shard < engines.size(); ++shard) {
    if (!engines[shard]) continue;  // Crash-failed hole keeps indices stable.
    out.push_back({shard, engines[shard]->slo().snapshot()});
  }
  return out;
}

std::vector<PatientSlo> ReconstructionFabric::patient_slo_snapshots() const {
  std::vector<PatientSlo> out;
  for (const auto& [index, engine] : engines_snapshot()) {
    auto per_shard = engine->patient_slo_snapshots();
    out.insert(out.end(), std::make_move_iterator(per_shard.begin()),
               std::make_move_iterator(per_shard.end()));
  }
  std::sort(out.begin(), out.end(),
            [](const PatientSlo& a, const PatientSlo& b) { return a.patient_id < b.patient_id; });
  return out;
}

BatchResult ReconstructionFabric::reconstruct(std::span<const CompressedWindow> batch) {
  std::lock_guard<std::mutex> batch_guard(batch_mutex_);

  BatchResult out;
  out.windows.assign(batch.size(), WindowResult{});
  if (batch.empty()) return out;

  // Composite ticket -> input position, so shard-major completion-order
  // results land back in input order.  Stray tickets from streaming
  // submissions the caller never polled are discarded, as in the engine's
  // wrapper.
  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  slot_of.reserve(batch.size());

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    CompressedWindow copy = batch[i];
    slot_of.emplace(submit(std::move(copy)), i);
  }
  for (auto&& result : drain()) {
    const auto found = slot_of.find(result.ticket);
    if (found == slot_of.end()) continue;
    out.windows[found->second] = std::move(result);
  }
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.records_per_second =
      out.wall_seconds > 0.0 ? static_cast<double>(batch.size()) / out.wall_seconds : 0.0;
  out.patients = aggregate_patient_stats(out.windows);
  return out;
}

}  // namespace wbsn::host
