#include "host/reconstruction_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "cs/pipeline.hpp"
#include "sig/rng.hpp"

namespace wbsn::host {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

ReconstructionEngine::ReconstructionEngine(EngineConfig cfg)
    : cfg_(cfg),
      capacity_(std::max<std::size_t>(1, cfg.queue_capacity)),
      // 2x the in-flight bound: queued windows plus a same-sized tranche
      // parked in the completion list all recycle without a miss.
      item_pool_(2 * std::max<std::size_t>(1, cfg.queue_capacity)),
      slo_(cfg.slo) {
  pending_sweep_threshold_ = std::max<std::size_t>(1024, 4 * capacity_);
  cost_model_.override_ms = cfg_.shed_solve_estimate_ms;
  for (auto& tracker : lane_slo_) tracker.configure(cfg_.slo);
  const int threads = std::max(0, cfg_.threads);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ReconstructionEngine::~ReconstructionEngine() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(work_mutex_);
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  // Unsolved items still queued and unretrieved completions are abandoned
  // with the engine (workers are gone; deleting bypasses item_pool_, whose
  // destructor frees only its own freelist).  Their payload buffers die
  // with them rather than returning to a shared pool — by design: the pool
  // replenishes through misses, it never double-frees.
  WorkItem* item = nullptr;
  while (queue_.try_pop(item)) delete item;
  WorkItem* node = done_head_;
  while (node != nullptr) {
    WorkItem* next = node->next;
    delete node;
    node = next;
  }
}

void ReconstructionEngine::release_window_payload(CompressedWindow& window) {
  if (cfg_.payload_pool != nullptr) {
    cfg_.payload_pool->recycle(std::move(window));
  } else {
    window.measurements = std::vector<double>{};
    window.reference = std::vector<double>{};
  }
}

void ReconstructionEngine::recycle_item(WorkItem* item) {
  item->window = CompressedWindow{};
  item->phi.reset();
  item->patient_slo.reset();
  item->charged_cost_us = 0;
  item->result = WindowResult{};
  item->next = nullptr;
  item_pool_.recycle(item);
}

void ReconstructionEngine::worker_loop() {
  for (;;) {
    WorkItem* item = nullptr;
    if (queue_.try_pop(item)) {
      process_one(item);
      continue;
    }
    std::unique_lock<std::mutex> lk(work_mutex_);
    work_cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_acquire) || !queue_.empty();
    });
    if (stop_.load(std::memory_order_acquire) && queue_.empty()) return;
  }
}

std::shared_ptr<const cs::SensingMatrix> ReconstructionEngine::prepare_matrix(
    const CompressedWindow& window) {
  const MatrixKey key{window.matrix_seed, window.measurements.size(), window.window_samples,
                      window.ones_per_column, 0};
  {
    std::lock_guard<std::mutex> lk(matrices_mutex_);
    const auto found = matrices_.find(key);
    if (found != matrices_.end()) {
      lru_.splice(lru_.begin(), lru_, found->second.lru_pos);  // Touch.
      return found->second.phi;
    }
  }
  // Cache miss: build outside the lock so concurrent submitters (even pure
  // cache hits) never stall behind a construction.  Two racing misses both
  // build; emplace keeps the first and the duplicate — bit-identical, it
  // is a pure function of the key — is discarded.
  sig::Rng rng(window.matrix_seed);
  auto built = std::make_shared<const cs::SensingMatrix>(cs::SensingMatrix::make_sparse_binary(
      window.measurements.size(), window.window_samples, window.ones_per_column, rng));
  std::lock_guard<std::mutex> lk(matrices_mutex_);
  const auto [it, inserted] = matrices_.emplace(key, CachedMatrix{std::move(built), {}});
  if (inserted) {
    lru_.push_front(key);
    it->second.lru_pos = lru_.begin();
    if (cfg_.matrix_cache_capacity > 0) {
      while (matrices_.size() > cfg_.matrix_cache_capacity) {
        // Evict least-recently used.  Windows already holding the
        // shared_ptr keep the matrix alive until they finish.
        matrices_.erase(lru_.back());
        lru_.pop_back();
      }
    }
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  }
  return it->second.phi;
}

std::shared_ptr<const cs::SensingMatrix> ReconstructionEngine::solve_matrix_for(
    const CompressedWindow& window, const std::shared_ptr<const cs::SensingMatrix>& full) {
  const std::size_t m_eff = window.solve_tier.effective_m;
  if (m_eff == 0 || m_eff >= full->rows()) return full;
  const MatrixKey key{window.matrix_seed, window.measurements.size(), window.window_samples,
                      window.ones_per_column, m_eff};
  {
    std::lock_guard<std::mutex> lk(matrices_mutex_);
    const auto found = matrices_.find(key);
    if (found != matrices_.end()) {
      lru_.splice(lru_.begin(), lru_, found->second.lru_pos);  // Touch.
      return found->second.phi;
    }
  }
  // Same miss protocol as prepare_matrix: build outside the lock (the
  // truncation is a pure function of the full operator and m_eff, so a
  // racing duplicate is bit-identical and simply discarded).
  auto built = std::make_shared<const cs::SensingMatrix>(full->truncated(m_eff));
  std::lock_guard<std::mutex> lk(matrices_mutex_);
  const auto [it, inserted] = matrices_.emplace(key, CachedMatrix{std::move(built), {}});
  if (inserted) {
    lru_.push_front(key);
    it->second.lru_pos = lru_.begin();
    if (cfg_.matrix_cache_capacity > 0) {
      while (matrices_.size() > cfg_.matrix_cache_capacity) {
        matrices_.erase(lru_.back());
        lru_.pop_back();
      }
    }
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  }
  return it->second.phi;
}

std::size_t ReconstructionEngine::cached_matrices() const {
  std::lock_guard<std::mutex> lk(matrices_mutex_);
  return matrices_.size();
}

std::shared_ptr<SloTracker> ReconstructionEngine::patient_tracker(std::uint32_t patient_id) {
  if (!cfg_.per_patient_slo) return nullptr;
  std::lock_guard<std::mutex> lk(patient_slo_mutex_);
  const auto found = patient_slo_.find(patient_id);
  if (found != patient_slo_.end()) return found->second;
  // Entries are never evicted by traffic (only extracted by a reshard
  // handoff), so the map is bounded by refusing new ids at the cap: a
  // fleet with churning patient ids can't grow host memory without bound.
  if (cfg_.max_tracked_patients > 0 && patient_slo_.size() >= cfg_.max_tracked_patients) {
    return nullptr;
  }
  return patient_slo_.emplace(patient_id, std::make_shared<SloTracker>(cfg_.slo)).first->second;
}

std::optional<SloTrackerState> ReconstructionEngine::extract_patient_slo(
    std::uint32_t patient_id) {
  std::lock_guard<std::mutex> lk(patient_slo_mutex_);
  const auto found = patient_slo_.find(patient_id);
  if (found == patient_slo_.end()) return std::nullopt;
  SloTrackerState state = found->second->extract_state();
  patient_slo_.erase(found);
  return state;
}

bool ReconstructionEngine::adopt_patient_slo(std::uint32_t patient_id,
                                             const SloTrackerState& state) {
  if (!cfg_.per_patient_slo) return false;
  std::lock_guard<std::mutex> lk(patient_slo_mutex_);
  auto found = patient_slo_.find(patient_id);
  if (found == patient_slo_.end()) {
    if (cfg_.max_tracked_patients > 0 && patient_slo_.size() >= cfg_.max_tracked_patients) {
      return false;  // Same cap semantics as a brand-new patient.
    }
    found = patient_slo_.emplace(patient_id, std::make_shared<SloTracker>(cfg_.slo)).first;
  }
  // A submission (or a bounce back) may have beaten the handoff: the moved
  // history folds into the entry already recording here.
  found->second->absorb_state(state);
  return true;
}

std::vector<PatientSlo> ReconstructionEngine::patient_slo_snapshots() const {
  std::lock_guard<std::mutex> lk(patient_slo_mutex_);
  std::vector<PatientSlo> out;
  out.reserve(patient_slo_.size());
  for (const auto& [patient_id, tracker] : patient_slo_) {
    out.push_back({patient_id, tracker->snapshot()});
  }
  return out;  // std::map iteration: already sorted by patient_id.
}

void ReconstructionEngine::process_one(WorkItem* item) {
  // Per-worker FISTA arena, reused across windows.  thread_local (not
  // per-call) is what makes the steady-state solve allocation-free — and
  // sharing one arena across engines on the same thread (serial mode,
  // fabric shards) only widens its high-water mark.
  static thread_local cs::FistaWorkspace workspace;

  // Resolve the solve operator and iteration budget from the window's tier.
  // Tier 0 takes the untouched path: the full operator and the configured
  // FistaConfig, bit-identical to an engine without the tier machinery.
  CompressedWindow& window = item->window;
  const cs::SolveTier tier = window.solve_tier;
  std::shared_ptr<const cs::SensingMatrix> solve_phi = item->phi;
  cs::FistaConfig fista = cfg_.fista;
  if (tier.tier != 0) {
    if (tier.effective_m > 0 && tier.effective_m < solve_phi->rows()) {
      solve_phi = solve_matrix_for(window, item->phi);
    }
    if (tier.iteration_cap > 0) {
      fista.max_iterations =
          std::min(fista.max_iterations, static_cast<int>(tier.iteration_cap));
    }
  }

  // Measurements are *borrowed* from the queued window (no copy — the
  // buffer travels by move from the producer through the queue to here),
  // and the signal lands directly in the result buffer, drawn from the
  // payload pool at admission.  A row-truncated operator reads only the
  // first rows() measurements.
  const std::size_t rows = std::min(window.measurements.size(), solve_phi->rows());
  WindowResult& result = item->result;
  result.signal.resize(window.window_samples);
  const auto t0 = Clock::now();
  result.iterations = cs::fista_solve_into(
      *solve_phi, std::span<const double>(window.measurements.data(), rows), fista, workspace,
      std::span<double>(result.signal.data(), result.signal.size()));
  const auto t1 = Clock::now();
  const double solve_ms = ms_between(t0, t1);

  // Feed the cost model: EWMA (alpha = 1/8) of per-window solve time,
  // keyed by the shape actually solved (rows of the possibly-truncated
  // operator) and tier, plus the shape-blind global fallback.  Racy
  // read-modify-write across workers only blurs the estimate.
  cost_model_.record(static_cast<std::uint32_t>(solve_phi->rows()), window.window_samples,
                     tier.tier, static_cast<std::uint64_t>(solve_ms * 1000.0));
  // Full solves stop at convergence, so a capped rung's price is set
  // against the iterations they actually run, not the configured budget.
  if (tier.tier == 0) {
    cost_model_.record_iterations(static_cast<std::uint32_t>(result.iterations));
  }

  result.patient_id = window.patient_id;
  result.window_index = window.window_index;
  result.priority = window.priority;
  result.route_tag = window.route_tag;
  result.ticket = item->ticket;
  result.solve_tier = window.solve_tier;
  result.degraded = window.solve_tier.tier != 0;
  result.latency_ms = solve_ms;
  result.e2e_ms = ms_between(item->enqueue_time, t1);
  result.snr_db = window.reference.empty()
                      ? std::numeric_limits<double>::quiet_NaN()
                      : cs::reconstruction_snr_db(window.reference, result.signal);
  slo_.on_complete(result.e2e_ms);
  lane_slo_[lane_index(window.priority)].on_complete(result.e2e_ms);
  if (item->patient_slo != nullptr) item->patient_slo->on_complete(result.e2e_ms);
  if (result.degraded) {
    slo_.on_degraded();
    lane_slo_[lane_index(window.priority)].on_degraded();
    if (item->patient_slo != nullptr) item->patient_slo->on_degraded();
  }
  // Snapshot what the bookkeeping below needs now: the moment the item is
  // published to done_, a concurrent poll() may pop and recycle it (wiping
  // window and result), so nothing on the item may be read after that.
  const std::uint32_t patient_id = window.patient_id;
  const std::uint64_t released_cost_us = item->charged_cost_us;
  // The solve is done with the payload: the buffers go back to the pool
  // now (not at poll) so the producer's next acquire hits.  The matrix
  // reference drops with them — the node parks in done_ holding neither.
  release_window_payload(window);
  item->phi.reset();
  {
    std::lock_guard<std::mutex> lk(done_mutex_);
    item->next = nullptr;
    if (done_tail_ != nullptr) {
      done_tail_->next = item;
    } else {
      done_head_ = item;
    }
    done_tail_ = item;
    ++done_count_;
  }
  // Release the window's priced backlog exactly as charged at admission.
  if (released_cost_us > 0) {
    pending_cost_us_.fetch_sub(released_cost_us, std::memory_order_relaxed);
  }
  // The completion is recorded and published; only now may a
  // drain_patient() waiter observe the patient as quiesced.
  retire_pending(patient_id);
  // Publish the result strictly before the slot release: any thread that
  // observes in_flight_ == 0 (acquire) is guaranteed to find every result
  // already in done_.
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  {
    // drain() tests in_flight_ under done_mutex_ before it sleeps.  Passing
    // through the mutex here means a waiter that saw the old count is
    // already asleep, so the notify below reaches it (no lost wakeup).
    std::lock_guard<std::mutex> lk(done_mutex_);
  }
  done_cv_.notify_all();
  // Strictly after the slot release: a hook-driven try_submit_step retry
  // that still fails saw the engine genuinely full again, so the next
  // completion's hook is guaranteed to re-wake it (no lost-wakeup window).
  if (cfg_.progress_hook) cfg_.progress_hook();
}

void ReconstructionEngine::retire_pending(std::uint32_t patient_id) {
  {
    std::lock_guard<std::mutex> lk(pending_mutex_);
    const auto found = patient_pending_.find(patient_id);
    // Zero entries stay in the map: erasing here would make the next submit
    // of the same patient pay a map-node allocation, forever.
    if (found != patient_pending_.end()) --found->second;
    // Id churn bound: only when the retained zeros have grown the map well
    // past the in-flight capacity, sweep them (erase-only — no allocation).
    if (patient_pending_.size() > pending_sweep_threshold_) {
      for (auto it = patient_pending_.begin(); it != patient_pending_.end();) {
        it = it->second == 0 ? patient_pending_.erase(it) : std::next(it);
      }
    }
  }
  pending_cv_.notify_all();
}

std::size_t ReconstructionEngine::ready_results() const {
  std::lock_guard<std::mutex> lk(done_mutex_);
  return done_count_;
}

std::size_t ReconstructionEngine::patient_pending(std::uint32_t patient_id) const {
  std::lock_guard<std::mutex> lk(pending_mutex_);
  const auto found = patient_pending_.find(patient_id);
  return found != patient_pending_.end() ? found->second : 0;
}

void ReconstructionEngine::drain_patient(std::uint32_t patient_id) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(pending_mutex_);
      const auto quiesced = [this, patient_id] {
        const auto found = patient_pending_.find(patient_id);
        return found == patient_pending_.end() || found->second == 0;
      };
      if (quiesced()) return;
      if (!workers_.empty()) {
        pending_cv_.wait(lk, quiesced);
        return;
      }
    }
    // Serial reference mode: the calling thread is the solver.  help_some
    // may solve other patients' windows first (FIFO order is preserved),
    // which only brings the target's turn closer.
    if (!help_some()) std::this_thread::yield();
  }
}

bool ReconstructionEngine::reserve_slot() {
  std::size_t current = in_flight_.load(std::memory_order_acquire);
  do {
    if (current >= in_flight_capacity()) return false;
  } while (!in_flight_.compare_exchange_weak(current, current + 1, std::memory_order_acq_rel,
                                             std::memory_order_acquire));
  return true;
}

double ReconstructionEngine::solve_estimate_ms(std::uint32_t measurements,
                                               std::uint32_t samples) const {
  return cost_model_.estimate_ms(measurements, samples, 0, 1.0);
}

cs::SolveTier ReconstructionEngine::tier_for(std::size_t rung, std::uint32_t m_full,
                                             std::uint32_t n) const {
  cs::SolveTier tier;
  if (rung == 0 || cfg_.degrade_tiers.empty()) return tier;
  const std::size_t clamped = std::min(rung, cfg_.degrade_tiers.size());
  const DegradeTierSpec& spec = cfg_.degrade_tiers[clamped - 1];
  tier.tier = static_cast<std::uint8_t>(clamped);
  tier.iteration_cap = spec.iteration_cap;
  if (cfg_.degrade_policy == DegradePolicy::kCrIter && spec.cr_percent > 0.0) {
    const auto rows = static_cast<std::uint32_t>(cs::rows_for_cr(spec.cr_percent, n));
    // Only truncation counts: a rung whose CR keeps at least as many rows
    // as the window actually carries leaves the operator whole.
    if (rows < m_full) tier.effective_m = rows;
  }
  return tier;
}

std::uint64_t ReconstructionEngine::charge_estimate_us(const CompressedWindow& window) const {
  const auto m_full = static_cast<std::uint32_t>(window.measurements.size());
  const cs::SolveTier& tier = window.solve_tier;
  const std::uint32_t m_used =
      tier.effective_m > 0 ? std::min(m_full, tier.effective_m) : m_full;
  const double scale = SolveCostModel::tier_scale(
      tier.iteration_cap, cost_model_.full_iterations(
                              static_cast<std::uint32_t>(std::max(0, cfg_.fista.max_iterations))));
  const double est_ms = cost_model_.estimate_ms(m_used, window.window_samples, tier.tier, scale);
  return est_ms > 0.0 ? static_cast<std::uint64_t>(est_ms * 1000.0) : 0;
}

double ReconstructionEngine::backlog_wait_ms() const {
  const auto workers = static_cast<double>(std::max(1, cfg_.threads));
  return static_cast<double>(pending_cost_us_.load(std::memory_order_relaxed)) / 1000.0 /
         workers;
}

std::vector<std::uint32_t> ReconstructionEngine::pending_patients(std::size_t max) const {
  std::vector<std::uint32_t> out;
  {
    std::lock_guard<std::mutex> lk(pending_mutex_);
    out.reserve(std::min(max, patient_pending_.size()));
    for (const auto& [patient_id, pending] : patient_pending_) {
      if (pending == 0) continue;
      out.push_back(patient_id);
      if (out.size() >= max) break;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ReconstructionEngine::maybe_degrade_backlog() {
  if (cfg_.degrade_policy == DegradePolicy::kOff || cfg_.degrade_tiers.empty()) return;
  const double deadline_ms = cfg_.slo.deadline_ms;
  if (deadline_ms <= 0.0) return;
  const auto workers = static_cast<double>(std::max(1, cfg_.threads));
  const std::size_t bottom = cfg_.degrade_tiers.size();
  // One rung per pass: each routine window in pop order steps one tier
  // down until the priced backlog fits the budget again.  Sustained
  // pressure walks again on the next admission, stepping further.  The
  // urgent lane is structurally out of reach (for_each_routine), so AF
  // windows always keep full fidelity.
  queue_.for_each_routine([&](WorkItem* item) {
    const double wait_ms =
        static_cast<double>(pending_cost_us_.load(std::memory_order_relaxed)) / 1000.0 /
        workers;
    if (wait_ms <= deadline_ms) return;  // Pressure already relieved.
    CompressedWindow& window = item->window;
    if (window.solve_tier.tier >= bottom) return;  // Already at the bottom rung.
    window.solve_tier =
        tier_for(static_cast<std::size_t>(window.solve_tier.tier) + 1,
                 static_cast<std::uint32_t>(window.measurements.size()),
                 window.window_samples);
    // Re-price the demoted window so the backlog (and any later shed scan)
    // sees its demoted cost, not its full-fidelity one.
    const std::uint64_t new_cost = charge_estimate_us(window);
    if (new_cost < item->charged_cost_us) {
      pending_cost_us_.fetch_sub(item->charged_cost_us - new_cost, std::memory_order_relaxed);
    } else if (new_cost > item->charged_cost_us) {
      pending_cost_us_.fetch_add(new_cost - item->charged_cost_us, std::memory_order_relaxed);
    }
    item->charged_cost_us = new_cost;
  });
}

bool ReconstructionEngine::shed_predicted_miss(cs::WindowPriority arrival_priority) {
  const double deadline_ms = cfg_.slo.deadline_ms;
  if (deadline_ms <= 0.0) return false;
  const double global_est_ms =
      cfg_.shed_solve_estimate_ms > 0.0
          ? cfg_.shed_solve_estimate_ms
          : static_cast<double>(cost_model_.global_us()) / 1000.0;
  if (global_est_ms <= 0.0) return false;  // No solve-time signal yet.
  const auto workers = static_cast<double>(std::max(1, cfg_.threads));
  const auto now = Clock::now();
  // Predicted completion if left queued: everything ahead of it plus
  // itself must solve, spread across the pool — a coarse M/D/c wait model.
  // Each queued window contributes its own (shape, tier) cost estimate,
  // so a backlog mixing window sizes is costed window by window rather
  // than by one blurred average — and a window the degrade policy already
  // demoted is priced at its demoted cost, not its full-fidelity one;
  // extract_best scans in pop order (urgent lane first), which is exactly
  // the order the cumulative cost accrues in.  Positive overshoot means
  // the deadline is already forecast to be missed.
  double cum_wait_ms = 0.0;
  const auto make_score = [&](bool urgent_eligible) {
    return [&, urgent_eligible](WorkItem* item, std::size_t,
                                bool urgent) -> std::optional<double> {
      const double est_ms =
          static_cast<double>(charge_estimate_us(item->window)) / 1000.0;
      cum_wait_ms += (est_ms > 0.0 ? est_ms : global_est_ms) / workers;
      if (urgent && !urgent_eligible) return std::nullopt;
      const double age_ms = ms_between(item->enqueue_time, now);
      const double overshoot_ms = age_ms + cum_wait_ms - deadline_ms;
      if (overshoot_ms <= 0.0) return std::nullopt;  // Still expected to make it.
      return overshoot_ms;  // Shed the most-doomed window.
    };
  };
  // Routine victims first (urgent windows still contribute queue-wait cost
  // but are never eligible); the urgent lane becomes eligible only when no
  // routine window is predicted to miss AND the arrival itself is urgent.
  auto victim = queue_.extract_best(make_score(false), /*include_urgent=*/true);
  if (!victim.has_value() && arrival_priority == cs::WindowPriority::kUrgent) {
    cum_wait_ms = 0.0;  // Fresh scan, fresh cumulative cost.
    victim = queue_.extract_best(make_score(true), /*include_urgent=*/true);
  }
  if (!victim.has_value()) return false;
  WorkItem* item = *victim;
  const bool urgent = item->window.priority == cs::WindowPriority::kUrgent;
  if (item->charged_cost_us > 0) {
    pending_cost_us_.fetch_sub(item->charged_cost_us, std::memory_order_relaxed);
  }
  slo_.on_shed(urgent);
  lane_slo_[lane_index(item->window.priority)].on_shed(urgent);
  if (item->patient_slo != nullptr) item->patient_slo->on_shed(urgent);
  retire_pending(item->window.patient_id);
  // A shed window's payload goes back to the pool like a solved one's —
  // shedding under overload must not bleed the pool dry.
  release_window_payload(item->window);
  if (cfg_.payload_pool != nullptr) cfg_.payload_pool->recycle(std::move(item->result));
  recycle_item(item);
  // A shed is progress too: the victim's patient may have quiesced, which
  // a deferred drain_patient waiter behind the hook must observe.
  if (cfg_.progress_hook) cfg_.progress_hook();
  return true;  // The victim's in-flight reservation passes to the arrival.
}

std::optional<std::uint64_t> ReconstructionEngine::try_submit(CompressedWindow&& window) {
  const std::size_t lane = lane_index(window.priority);
  if (auto ticket = try_submit_impl(std::move(window), cfg_.deadline_shedding)) {
    return ticket;
  }
  slo_.on_reject();
  lane_slo_[lane].on_reject();
  return std::nullopt;
}

std::optional<std::uint64_t> ReconstructionEngine::try_submit_step(CompressedWindow&& window) {
  // Blocking-submit semantics, one step at a time: no shedding (a waiter
  // must not drop queued work) and no reject accounting (a failed step is
  // backpressure the caller waits out, not a bounced window).
  return try_submit_impl(std::move(window), /*allow_shedding=*/false);
}

std::optional<std::uint64_t> ReconstructionEngine::try_submit_impl(CompressedWindow&& window,
                                                                   bool allow_shedding) {
  // Reserve an in-flight slot first; this is the only admission gate.  At
  // capacity, deadline-aware shedding may instead free a slot by dropping
  // the queued window predicted to miss its deadline — the arrival then
  // takes over the victim's reservation.  Demote-first: before any queued
  // window is shed whole, an active DegradePolicy first tries to relieve
  // the pressure by degrading queued routine windows to a cheaper tier —
  // which can dissolve the predicted miss entirely (the arrival then
  // bounces, but the backlog drains faster and stops hitting capacity).
  if (!reserve_slot()) {
    if (allow_shedding) maybe_degrade_backlog();
    if (!(allow_shedding && shed_predicted_miss(window.priority))) {
      return std::nullopt;
    }
  }

  // Node from the freelist; the window's buffers MOVE in (the producer's
  // pooled buffers travel untouched through the queue to the solver).
  WorkItem* item = item_pool_.acquire();
  item->phi = prepare_matrix(window);
  item->window = std::move(window);
  // The result buffer is drawn here, not at solve time: the pool's signal
  // high-water then follows the in-flight window count.
  if (cfg_.payload_pool != nullptr) item->result.signal = cfg_.payload_pool->acquire_signal();
  item->patient_slo = patient_tracker(item->window.patient_id);
  item->ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  item->enqueue_time = Clock::now();
  // Price the admission into the backlog (at the window's tier — a preset
  // tier is charged at its cheaper cost).  Always on: backlog_wait_ms()
  // feeds the CR-hint pressure signal regardless of DegradePolicy, and
  // counters never affect values.
  item->charged_cost_us = charge_estimate_us(item->window);
  if (item->charged_cost_us > 0) {
    pending_cost_us_.fetch_add(item->charged_cost_us, std::memory_order_relaxed);
  }
  const std::uint64_t ticket = item->ticket;
  const bool urgent = item->window.priority == cs::WindowPriority::kUrgent;

  slo_.on_submit();
  lane_slo_[lane_index(item->window.priority)].on_submit();
  if (item->patient_slo != nullptr) item->patient_slo->on_submit();
  {
    // Counted before the queue push so a worker's retire can never precede
    // its submit from a drain_patient() waiter's point of view.
    std::lock_guard<std::mutex> lk(pending_mutex_);
    ++patient_pending_[item->window.patient_id];
  }
  queue_.push(item, urgent);

  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lk(work_mutex_);
    }
    work_cv_.notify_one();
  }
  // Proactive degrade trigger: if this admission pushed the priced backlog
  // past one deadline, demote queued routine windows now instead of
  // waiting for capacity to fill.
  if (cfg_.degrade_policy != DegradePolicy::kOff && !cfg_.degrade_tiers.empty() &&
      cfg_.slo.deadline_ms > 0.0 && backlog_wait_ms() > cfg_.slo.deadline_ms) {
    maybe_degrade_backlog();
  }
  return ticket;
}

std::uint64_t ReconstructionEngine::submit(CompressedWindow window) {
  for (;;) {
    // A blocking submitter can afford to wait, so it never sheds queued
    // work to jump in — and its retries are backpressure, not rejections,
    // so they stay out of the reject counters.
    if (auto ticket = try_submit_impl(std::move(window), /*allow_shedding=*/false)) {
      return *ticket;
    }
    // At capacity.  Serial mode: make room by solving pending windows
    // inline.  Threaded mode: wait for a worker to complete one (wait_for
    // rather than wait so a slot freed between the failed try_submit and
    // the sleep cannot strand us).
    if (workers_.empty() && help_some()) continue;
    std::unique_lock<std::mutex> lk(done_mutex_);
    done_cv_.wait_for(lk, std::chrono::milliseconds(1), [this] {
      return in_flight_.load(std::memory_order_acquire) < in_flight_capacity();
    });
  }
}

bool ReconstructionEngine::help_some() {
  WorkItem* item = nullptr;
  if (!queue_.try_pop(item)) return false;
  process_one(item);
  return true;
}

std::optional<WindowResult> ReconstructionEngine::poll() {
  for (;;) {
    WorkItem* node = nullptr;
    {
      std::lock_guard<std::mutex> lk(done_mutex_);
      if (done_head_ != nullptr) {
        node = done_head_;
        done_head_ = node->next;
        if (done_head_ == nullptr) done_tail_ = nullptr;
        --done_count_;
        slo_.on_retrieve();
        lane_slo_[lane_index(node->result.priority)].on_retrieve();
        // Resolved at submit and engine-lifetime stable: no map, no lock.
        if (node->patient_slo != nullptr) node->patient_slo->on_retrieve();
      }
    }
    if (node != nullptr) {
      // The signal buffer moves out to the caller (who may recycle it into
      // the payload pool after use); the node itself goes back on the
      // freelist.
      WindowResult out = std::move(node->result);
      recycle_item(node);
      return std::optional<WindowResult>{std::move(out)};
    }
    // Serial reference mode: the calling thread is the solver.  Loop (not
    // recurse) because a concurrent poller may steal the result we solved.
    if (workers_.empty() && help_some()) continue;
    return std::nullopt;
  }
}

std::vector<WindowResult> ReconstructionEngine::drain() {
  std::vector<WindowResult> out;
  for (;;) {
    while (auto result = poll()) out.push_back(std::move(*result));
    if (in_flight_.load(std::memory_order_acquire) == 0) {
      // Everything solved, and every result was published to done_ before
      // its slot release — but possibly after our poll() loop saw done_
      // empty, so sweep once more.
      while (auto result = poll()) out.push_back(std::move(*result));
      return out;
    }
    if (workers_.empty()) {
      // poll() keeps solving inline; yield covers the corner where another
      // thread is mid-solve and the queues are momentarily empty.
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lk(done_mutex_);
    done_cv_.wait(lk, [this] {
      return in_flight_.load(std::memory_order_acquire) == 0 || done_count_ != 0;
    });
  }
}

BatchResult ReconstructionEngine::reconstruct(std::span<const CompressedWindow> batch) {
  std::lock_guard<std::mutex> batch_guard(batch_mutex_);
  // Blocking submits: overload is waited out, never shed — a shed here
  // could evict another window of this same batch.
  return reconstruct_batch(
      batch, [this](const CompressedWindow& window) { return submit(window); },
      [this] { return drain(); });
}

BatchResult reconstruct_batch(
    std::span<const CompressedWindow> batch,
    const std::function<std::uint64_t(const CompressedWindow&)>& submit,
    const std::function<std::vector<WindowResult>()>& drain) {
  BatchResult out;
  out.windows.assign(batch.size(), WindowResult{});
  if (batch.empty()) return out;
  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  slot_of.reserve(batch.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) slot_of.emplace(submit(batch[i]), i);
  for (auto&& result : drain()) {
    const auto found = slot_of.find(result.ticket);
    if (found != slot_of.end()) out.windows[found->second] = std::move(result);
  }
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.records_per_second =
      out.wall_seconds > 0.0 ? static_cast<double>(batch.size()) / out.wall_seconds : 0.0;
  out.patients = aggregate_patient_stats(out.windows);
  return out;
}

std::vector<PatientStats> aggregate_patient_stats(std::span<const WindowResult> windows) {
  // Serial aggregation in input order keeps the stats deterministic.
  std::map<std::uint32_t, PatientStats> stats;
  std::map<std::uint32_t, std::size_t> scored;
  for (const auto& window : windows) {
    auto& s = stats[window.patient_id];
    s.patient_id = window.patient_id;
    ++s.windows;
    if (!std::isnan(window.snr_db)) {
      s.mean_snr_db += window.snr_db;
      ++scored[window.patient_id];
    }
    s.mean_latency_ms += window.latency_ms;
    s.max_latency_ms = std::max(s.max_latency_ms, window.latency_ms);
  }
  std::vector<PatientStats> out;
  out.reserve(stats.size());
  for (auto& [id, s] : stats) {
    const std::size_t n_scored = scored[id];
    s.mean_snr_db = n_scored > 0 ? s.mean_snr_db / static_cast<double>(n_scored)
                                 : std::numeric_limits<double>::quiet_NaN();
    s.mean_latency_ms /= static_cast<double>(s.windows);
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<CompressedWindow> compress_record(const sig::Record& record,
                                              std::uint32_t patient_id,
                                              const RecordCompressionConfig& cfg) {
  std::vector<CompressedWindow> out;
  const std::size_t n = cfg.window_samples;
  const std::size_t m = cs::rows_for_cr(cfg.cr_percent, n);

  std::uint32_t window_index = 0;
  for (std::size_t l = 0; l < record.num_leads(); ++l) {
    const std::uint64_t seed = cs::lead_matrix_seed(cfg.matrix_seed, l);
    sig::Rng rng(seed);
    const auto phi = cs::SensingMatrix::make_sparse_binary(m, n, cfg.ones_per_column, rng);

    const auto& lead = record.leads[l];
    const std::size_t windows = lead.size() / n;
    for (std::size_t w = 0; w < windows; ++w) {
      const auto window_mv = std::span<const double>(lead).subspan(w * n, n);
      auto encoded = cs::encode_window(phi, window_mv, cfg.adc, cfg.keep_reference);

      CompressedWindow cw;
      cw.patient_id = patient_id;
      cw.window_index = window_index++;
      cw.matrix_seed = seed;
      cw.window_samples = static_cast<std::uint32_t>(n);
      cw.ones_per_column = static_cast<std::uint32_t>(cfg.ones_per_column);
      const auto lo = static_cast<std::int64_t>(w * n);
      for (const auto& span : cfg.urgent_spans) {
        if (span.overlaps(lo, lo + static_cast<std::int64_t>(n))) {
          cw.priority = cs::WindowPriority::kUrgent;
          break;
        }
      }
      cw.measurements = std::move(encoded.measurements);
      cw.reference = std::move(encoded.reference);
      out.push_back(std::move(cw));
    }
  }
  return out;
}

}  // namespace wbsn::host
