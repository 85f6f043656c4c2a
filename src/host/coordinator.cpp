#include "host/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace wbsn::host {

ShardCounters& ShardCounters::operator+=(const ShardCounters& s) {
  submitted += s.submitted;
  completed += s.completed;
  retrieved += s.retrieved;
  shed_routine += s.shed_routine;
  shed_urgent += s.shed_urgent;
  rejected += s.rejected;
  deadline_violations += s.deadline_violations;
  unsolved += s.unsolved;
  ready += s.ready;
  lost += s.lost;
  return *this;
}

ShardCounters engine_counters(const ReconstructionEngine& engine) {
  // Exact once quiesced (the only time a coordinator audits); racing
  // traffic makes it approximate like any tracker read.
  const SloTrackerState slo = engine.slo().state();
  ShardCounters c;
  c.submitted = slo.submitted;
  c.completed = slo.completed;
  c.retrieved = slo.retrieved;
  c.shed_routine = slo.shed_routine;
  c.shed_urgent = slo.shed_urgent;
  c.rejected = slo.rejected;
  c.deadline_violations = slo.violations;
  c.unsolved = engine.in_flight();
  c.ready = engine.ready_results();
  return c;
}

void Coordinator::open(std::vector<std::unique_ptr<ShardLink>> links) {
  close(false);
  slots_.clear();
  for (auto& link : links) slots_.push_back(Slot{std::move(link)});
  epoch_ = 0;
  rings_.assign(1, HashRing(slots_.size(), kVnodesPerShard));
  patients_.clear();
  pending_ = {};
  submits_.clear();
  departed_ = {};
}

std::size_t Coordinator::live_shard_count() const {
  return static_cast<std::size_t>(std::count_if(
      slots_.begin(), slots_.end(), [](const Slot& slot) { return slot.link != nullptr; }));
}

bool Coordinator::stage(CompressedWindow& window, bool blocking, std::size_t shard) {
  Slot& slot = slots_[shard];
  window.route_tag = epoch_;
  const std::uint32_t patient_id = window.patient_id;
  if (slot.link == nullptr || !slot.link->submit(window, blocking)) return false;
  patients_.insert(patient_id);
  slot.unacked.push_back(submits_.size());
  submits_.push_back({epoch_, shard, false, std::nullopt});
  return true;
}

void Coordinator::take_acks(Slot& slot) {
  acks_.clear();
  slot.link->take_acks(acks_);
  for (const SubmitAck& ack : acks_) {
    if (slot.unacked.empty()) break;  // A link never acks more than it took.
    PendingSubmit& record = submits_[slot.unacked.front()];
    slot.unacked.pop_front();
    record.resolved = true;
    if (ack.status == SubmitAck::Status::kAccepted) {
      ++slot.acked;
      record.ticket = compose_ticket(record.epoch, record.shard, ack.local_ticket);
    } else if (ack.status == SubmitAck::Status::kRejected) {
      ++slot.rejected;
    }
  }
}

void Coordinator::fail_unacked(Slot& slot) {
  for (; !slot.unacked.empty(); slot.unacked.pop_front()) {
    submits_[slot.unacked.front()].resolved = true;
  }
}

bool Coordinator::flush_slot(std::size_t shard) {
  Slot& slot = slots_[shard];
  if (slot.link == nullptr) return false;
  const bool flushed = slot.link->flush();
  take_acks(slot);
  if (!flushed) fail_unacked(slot);
  return flushed;
}

std::optional<std::uint64_t> Coordinator::submit(CompressedWindow& window, bool blocking) {
  // Re-routes after a failover, at most once per shard that can die.
  for (std::size_t hop = 0; hop <= slots_.size(); ++hop) {
    const std::size_t shard = owner(window.patient_id);
    // Settle the shard's pipelined windows first, so this window's record
    // is the newest in submits_ and can be popped once resolved.
    (void)flush_slot(shard);
    if (stage(window, blocking, shard)) {
      const bool flushed = flush_slot(shard);
      const std::optional<std::uint64_t> ticket = submits_.back().ticket;
      submits_.pop_back();
      if (ticket) {
        if (cfg_.payload_pool) cfg_.payload_pool->recycle(std::move(window));
        return ticket;
      }
      if (flushed) return std::nullopt;  // Rejected: backpressure, not a dead shard.
    }
    if (!cfg_.auto_failover || !fail_shard(shard)) return std::nullopt;
  }
  return std::nullopt;
}

bool Coordinator::submit_pipelined(CompressedWindow&& window) {
  for (std::size_t hop = 0; hop <= slots_.size(); ++hop) {
    const std::size_t shard = owner(window.patient_id);
    if (stage(window, /*blocking=*/true, shard)) {
      if (cfg_.payload_pool) cfg_.payload_pool->recycle(std::move(window));
      return true;
    }
    // Never staged, so still in hand: after a failover it re-routes
    // loss-free.  Staged or on-the-wire windows are never resubmitted.
    if (cfg_.auto_failover && fail_shard(shard)) continue;
    submits_.push_back({epoch_, shard, true, std::nullopt});
    return false;
  }
  return false;
}

std::vector<std::optional<std::uint64_t>> Coordinator::flush_submits() {
  for (std::size_t shard = 0; shard < slots_.size(); ++shard) (void)flush_slot(shard);
  std::vector<std::optional<std::uint64_t>> out;
  out.reserve(submits_.size());
  for (const auto& record : submits_) out.push_back(record.resolved ? record.ticket : std::nullopt);
  submits_.clear();
  return out;
}

void Coordinator::adopt_results(Slot* credit, std::size_t before) {
  for (std::size_t i = before; i < pending_.size(); ++i) {
    WindowResult& result = pending_[i];
    // route_tag carries the submission epoch, whose ring names the shard
    // index the window was submitted to, whatever the topology now.
    const std::uint32_t e = result.route_tag;
    const std::size_t shard = e < rings_.size() ? rings_[e].owner(result.patient_id) : 0;
    result.ticket = compose_ticket(e, shard, result.ticket);
    if (credit != nullptr) ++credit->retrieved;
  }
}

bool Coordinator::settle(ShardLink& link, Slot* credit, ShardCounters& counters, bool quiesce) {
  for (;;) {
    const std::size_t before = pending_.size();
    const bool ok = link.snapshot(counters, &pending_);
    adopt_results(credit, before);
    if (!ok) return false;
    if (counters.ready == 0 && (!quiesce || counters.unsolved == 0)) return true;
    if (quiesce) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::optional<WindowResult> Coordinator::poll() {
  if (pending_.empty() && !slots_.empty()) {
    const std::size_t start = next_poll_++ % slots_.size();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const std::size_t shard = (start + i) % slots_.size();
      Slot& slot = slots_[shard];
      if (slot.link == nullptr) continue;
      (void)flush_slot(shard);  // Keeps `owed` current.
      const std::size_t before = pending_.size();
      const bool ok =
          slot.link->poll_many(pending_, slot.acked - std::min(slot.acked, slot.retrieved));
      adopt_results(&slot, before);
      if (!ok) on_link_failure(shard);
    }
  }
  if (pending_.empty()) return std::nullopt;
  WindowResult result = std::move(pending_.front());
  pending_.pop_front();
  return result;
}

std::vector<WindowResult> Coordinator::drain() {
  for (std::size_t shard = 0; shard < slots_.size(); ++shard) {
    if (slots_[shard].link == nullptr) continue;
    (void)flush_slot(shard);
    ShardCounters counters;
    if (!settle(*slots_[shard].link, &slots_[shard], counters, /*quiesce=*/true)) {
      on_link_failure(shard);  // Unreachable: nothing left to wait on there.
    }
  }
  std::vector<WindowResult> out;
  out.reserve(pending_.size());
  for (; !pending_.empty(); pending_.pop_front()) out.push_back(std::move(pending_.front()));
  return out;
}

bool Coordinator::resize(std::vector<NextSlot> next, ResizeReport& report,
                         std::vector<std::unique_ptr<ShardLink>>* retired) {
  // Outstanding submits belong to the closing epoch: settle their acks
  // before the flip so their tickets compose against it.
  for (std::size_t shard = 0; shard < slots_.size(); ++shard) (void)flush_slot(shard);
  report = {};
  report.shards_before = slots_.size();
  report.shards_after = next.size();
  // A move is about link identity: an index that shifts while keeping its
  // link needs no migration.
  std::vector<ShardLink*> old_table;
  for (const Slot& slot : slots_) old_table.push_back(slot.link.get());
  std::vector<Slot> table;
  for (NextSlot& n : next) {
    table.push_back(n.keep != NextSlot::kFresh ? std::move(slots_[n.keep])
                                               : Slot{std::move(n.fresh)});
  }
  std::vector<std::unique_ptr<ShardLink>> leaving;  // Failed slots are already accounted.
  for (Slot& slot : slots_) {
    if (slot.link != nullptr) leaving.push_back(std::move(slot.link));
  }
  report.retired_shards = leaving.size();

  // 1. Flip: every later submission routes and tags by the new epoch.
  slots_ = std::move(table);
  rings_.emplace_back(slots_.size(), kVnodesPerShard);
  report.epoch = ++epoch_;
  const auto old_owner = [&](std::uint32_t patient) {
    return old_table[rings_[epoch_ - 1].owner(patient)];
  };

  // 2. Movers: patients whose owning link changed.
  std::vector<std::uint32_t> moved;
  for (const std::uint32_t patient : patients_) {
    if (old_owner(patient) != slots_[owner(patient)].link.get()) moved.push_back(patient);
  }
  std::sort(moved.begin(), moved.end());  // Deterministic handoff order.
  report.known_patients = patients_.size();
  report.moved_patients = moved.size();

  // 3. Per mover: drain, sweep the old owner's parked results, extract,
  //    adopt on the new owner.
  bool ok = true;
  for (const std::uint32_t patient : moved) {
    ShardLink& from = *old_owner(patient);
    ShardLink& to = *slots_[owner(patient)].link;
    const auto holder = std::find_if(slots_.begin(), slots_.end(),
                                     [&](const Slot& s) { return s.link.get() == &from; });
    ShardCounters counters;
    std::optional<SloTrackerState> state;
    bool adopted = false;
    if (!from.drain_patient(patient) ||
        !settle(from, holder != slots_.end() ? &*holder : nullptr, counters, false) ||
        !from.extract_slo(patient, state) || (state && !to.adopt_slo(patient, *state, adopted))) {
      ok = false;
      continue;
    }
    if (adopted) ++report.slo_handoffs;
  }

  // 4. Retire the leavers: pull out what they still hold, fold their
  //    final counters (exact, so their mirrors go with them), dismiss.
  for (auto& link : leaving) {
    ShardCounters final_counters;
    if (settle(*link, nullptr, final_counters, /*quiesce=*/true)) {
      departed_ += final_counters;
    } else {
      ok = false;
    }
    link->close(/*bye=*/true);
    if (retired != nullptr) retired->push_back(std::move(link));
  }
  return ok;
}

bool Coordinator::fail_shard(std::size_t shard, FailoverReport* report) {
  if (link(shard) == nullptr) return false;
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (i != shard && slots_[i].link != nullptr) survivors.push_back(i);
  }
  if (survivors.empty()) return false;  // Nowhere to re-home the patients.
  Slot& slot = slots_[shard];
  // Unacknowledged windows resolve as lost, never retried: the dead shard
  // may have admitted them.
  take_acks(slot);
  fail_unacked(slot);
  // Results the link already received are delivered, not lost.
  const std::size_t before = pending_.size();
  slot.link->take_results(pending_);
  adopt_results(&slot, before);
  // Every acknowledged window is accounted once: retrieved in time ->
  // completed, destroyed with the shard -> lost (windows it shed before
  // dying are indistinguishable from lost ones out here).
  ShardCounters frozen;
  frozen.submitted = slot.acked;
  frozen.completed = frozen.retrieved = slot.retrieved;
  frozen.rejected = slot.rejected;
  frozen.lost = slot.acked - std::min(slot.acked, slot.retrieved);
  departed_ += frozen;
  // Destroying the link drops the connection — or, in process, the engine
  // with its backlog: the equivalent of kill -9.
  slot.link.reset();

  // Vnode positions depend only on (shard, replica): the subset ring is
  // the old one minus the dead shard's points.
  std::size_t moved = 0;
  for (const std::uint32_t patient : patients_) moved += owner(patient) == shard;
  rings_.emplace_back(survivors, kVnodesPerShard);
  ++epoch_;
  if (report != nullptr) *report = {epoch_, shard, survivors.size(), moved, frozen.lost};
  return true;
}

ShardCounters Coordinator::aggregate() {
  ShardCounters sum = departed_;
  for (std::size_t shard = 0; shard < slots_.size(); ++shard) {
    if (slots_[shard].link == nullptr) continue;
    (void)flush_slot(shard);
    ShardCounters counters;
    if (slots_[shard].link->snapshot(counters, nullptr)) sum += counters;
  }
  return sum;
}

std::optional<SloTrackerState> Coordinator::patient_slo_state(std::uint32_t patient_id) {
  ShardLink* l = link(owner(patient_id));
  std::optional<SloTrackerState> state;
  if (l == nullptr || !l->extract_slo(patient_id, state) || !state) return std::nullopt;
  bool adopted = false;
  (void)l->adopt_slo(patient_id, *state, adopted);  // Hand the history back.
  return state;
}

void Coordinator::close(bool bye) {
  for (std::size_t shard = 0; shard < slots_.size(); ++shard) {
    if (slots_[shard].link == nullptr) continue;
    (void)flush_slot(shard);
    slots_[shard].link->close(bye);
  }
}

}  // namespace wbsn::host
