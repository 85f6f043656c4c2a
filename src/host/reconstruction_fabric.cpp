#include "host/reconstruction_fabric.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace wbsn::host {

bool EngineLink::submit(CompressedWindow& window, bool blocking) {
  if (blocking) {
    acks_.push_back({SubmitAck::Status::kAccepted, engine_.submit(std::move(window))});
  } else if (const auto ticket = engine_.try_submit(std::move(window))) {
    acks_.push_back({SubmitAck::Status::kAccepted, *ticket});
  } else {
    acks_.push_back({SubmitAck::Status::kRejected, 0});
  }
  return true;
}

bool EngineLink::poll_many(RingDeque<WindowResult>& out, std::uint64_t) {
  // A serial engine solves inside poll(): only while the coordinator has
  // nothing to hand back, so one coordinator poll solves at most one window.
  if (engine_.thread_count() == 0 && out.empty()) {
    if (auto result = engine_.poll()) out.push_back(std::move(*result));
  }
  while (engine_.ready_results() > 0) {
    auto result = engine_.poll();
    if (!result) break;
    out.push_back(std::move(*result));
  }
  return true;
}

bool EngineLink::snapshot(ShardCounters& counters, RingDeque<WindowResult>* sweep) {
  if (sweep != nullptr) {
    for (auto& result : engine_.drain()) sweep->push_back(std::move(result));
  }
  counters = engine_counters(engine_);
  return true;
}

bool EngineLink::extract_slo(std::uint32_t patient_id, std::optional<SloTrackerState>& state) {
  state = engine_.extract_patient_slo(patient_id);
  return true;
}

bool EngineLink::adopt_slo(std::uint32_t patient_id, const SloTrackerState& state,
                           bool& adopted) {
  adopted = engine_.adopt_patient_slo(patient_id, state);
  return true;
}

ReconstructionFabric::ReconstructionFabric(FabricConfig cfg) : cfg_(std::move(cfg)) {
  std::vector<std::unique_ptr<ShardLink>> links;
  for (int i = 0; i < std::max(1, cfg_.shards); ++i) {
    links.push_back(std::make_unique<EngineLink>(cfg_.engine));
  }
  coord_.open(std::move(links));
  retired_slo_.configure(cfg_.engine.slo);
  for (auto& tracker : retired_lane_slo_) tracker.configure(cfg_.engine.slo);
}

std::vector<std::pair<std::size_t, ReconstructionEngine*>> ReconstructionFabric::engines() const {
  std::vector<std::pair<std::size_t, ReconstructionEngine*>> out;
  for (std::size_t i = 0; i < coord_.shard_count(); ++i) {
    if (auto* link = static_cast<EngineLink*>(coord_.link(i))) out.emplace_back(i, &link->engine());
  }
  return out;
}

ReconstructionEngine& ReconstructionFabric::shard(std::size_t index) const {
  auto* link = static_cast<EngineLink*>(coord_.link(index));
  if (link == nullptr) throw std::out_of_range("shard index not active");
  return link->engine();
}

std::optional<std::uint64_t> ReconstructionFabric::try_submit(CompressedWindow&& window) {
  return coord_.submit(window, /*blocking=*/false);
}

std::uint64_t ReconstructionFabric::submit(CompressedWindow window) {
  // An engine link never dies and a blocking admission never rejects.
  return *coord_.submit(window, /*blocking=*/true);
}

ResizeReport ReconstructionFabric::resize(int new_shards) {
  const auto target = static_cast<std::size_t>(std::max(1, new_shards));
  // Surviving indices keep their engines; new indices and crash holes get
  // fresh ones; indices past the target retire.
  std::vector<Coordinator::NextSlot> next(target);
  for (std::size_t i = 0; i < target; ++i) {
    if (coord_.link(i) != nullptr) {
      next[i].keep = i;
    } else {
      next[i].fresh = std::make_unique<EngineLink>(cfg_.engine);
    }
  }
  ResizeReport report;
  std::vector<std::unique_ptr<ShardLink>> retired;
  (void)coord_.resize(std::move(next), report, &retired);
  for (const auto& link : retired) {
    ReconstructionEngine& engine = static_cast<EngineLink&>(*link).engine();
    retired_slo_.merge_from(engine.slo());
    retired_lane_slo_[0].merge_from(engine.lane_slo(cs::WindowPriority::kRoutine));
    retired_lane_slo_[1].merge_from(engine.lane_slo(cs::WindowPriority::kUrgent));
  }
  return report;
}

FailoverReport ReconstructionFabric::fail_shard(std::size_t index) {
  if (coord_.link(index) == nullptr) throw std::out_of_range("fail_shard: not a live shard");
  FailoverReport report;
  if (!coord_.fail_shard(index, &report)) {
    throw std::invalid_argument("fail_shard: no survivors to re-home onto");
  }
  return report;
}

SloSnapshot ReconstructionFabric::slo_snapshot() {
  SloTracker merged(cfg_.engine.slo);
  for (const auto& [index, engine] : engines()) merged.merge_from(engine->slo());
  merged.merge_from(retired_slo_);
  SloSnapshot snap = merged.snapshot();
  // Counters come from the one set of books that also covers crash-failed
  // shards (whose trackers died with them): every acknowledged window is
  // retrieved, shed, lost, or still in flight.
  const ShardCounters books = coord_.aggregate();
  snap.submitted = books.submitted;
  snap.completed = books.completed;
  snap.shed_routine = books.shed_routine;
  snap.shed_urgent = books.shed_urgent;
  snap.rejected = books.rejected;
  snap.deadline_violations = books.deadline_violations;
  snap.lost = books.lost;
  const std::uint64_t settled = books.retrieved + books.shed_routine + books.shed_urgent + books.lost;
  snap.in_flight = books.submitted - std::min(books.submitted, settled);
  return snap;
}

SloSnapshot ReconstructionFabric::lane_slo_snapshot(cs::WindowPriority priority) const {
  SloTracker merged(cfg_.engine.slo);
  for (const auto& [index, engine] : engines()) merged.merge_from(engine->lane_slo(priority));
  merged.merge_from(retired_lane_slo_[priority == cs::WindowPriority::kUrgent ? 1 : 0]);
  return merged.snapshot();
}

std::vector<ShardSlo> ReconstructionFabric::shard_slo_snapshots() const {
  std::vector<ShardSlo> out;
  for (const auto& [index, engine] : engines()) out.push_back({index, engine->slo().snapshot()});
  return out;
}

std::vector<PatientSlo> ReconstructionFabric::patient_slo_snapshots() const {
  std::vector<PatientSlo> out;
  for (const auto& [index, engine] : engines()) {
    auto per_shard = engine->patient_slo_snapshots();
    out.insert(out.end(), std::make_move_iterator(per_shard.begin()),
               std::make_move_iterator(per_shard.end()));
  }
  std::sort(out.begin(), out.end(),
            [](const PatientSlo& a, const PatientSlo& b) { return a.patient_id < b.patient_id; });
  return out;
}

BatchResult ReconstructionFabric::reconstruct(std::span<const CompressedWindow> batch) {
  return reconstruct_batch(
      batch, [this](const CompressedWindow& window) { return submit(window); },
      [this] { return drain(); });
}

}  // namespace wbsn::host
