// Multi-patient host-side reconstruction engine — streaming core.
//
// The node fleet only encodes (cs/sensing_matrix.hpp); every measurement
// window lands on the host, which must run one FISTA solve per window.
// Fleet traffic is inherently continuous — nodes emit one compressed
// window every couple of seconds, forever — so the engine is built around
// a submit/poll streaming interface rather than offline batches:
//
//   * submit()/try_submit() hand one window to the engine at any time,
//     from any thread.  Admission is bounded: at most queue_capacity
//     windows may be in flight (submitted but not yet solved);
//     try_submit() reports backpressure instead of blocking.  Completed
//     results wait in an unbounded completion list until retrieved, so a
//     producer that submits a long burst before draining never deadlocks
//     against its own unpolled results.
//   * The pending backlog is a two-lane priority queue (work_queue.hpp):
//     windows tagged cs::WindowPriority::kUrgent (the AF-alarm pathway)
//     jump ahead of routine telemetry, FIFO within each lane.  A fixed
//     pool of worker threads drains it persistently — there is no
//     per-batch barrier, a worker pops one window, solves it
//     (cs::fista_solve_into) and starts the next the moment it finishes.
//     An event loop that admits on its own thread may instead hold a
//     window — a private list no worker sees — and solve it itself through
//     solve_held(), same solve and completion code (Solver::kCallerIfCheap):
//     a window cheaper than a worker handoff (kWorkerHandoffUs), and any
//     window that reaches an idle engine (no other window in flight).  The
//     second and later windows of a burst, and every window that arrives
//     while a worker solves, still go to the workers.
//   * Under overload, admission is deadline-aware when deadline_shedding
//     is on: instead of bouncing the newest arrival, try_submit sheds the
//     queued window whose predicted completion (backlog position x the
//     measured per-window solve EWMA) overshoots its deadline the most,
//     and admits the arrival into the freed slot.  Routine windows are
//     shed before urgent ones, held windows never; sheds and rejects land
//     in the SLO trackers per lane.
//   * poll() returns one completed window (completion order); drain()
//     blocks until everything in flight has completed and returns the
//     rest.  With threads == 0 both run the solver inline in the calling
//     thread (the serial reference mode).
//   * Every window's enqueue->complete latency lands in a lock-free SLO
//     histogram (slo_tracker.hpp): p50/p95/p99, throughput, in-flight
//     depth, and violations of a configurable per-window deadline.
//
// reconstruct() remains as a thin batch wrapper over the streaming core
// (submit everything, drain, restore submission order) so offline callers
// and the original tests keep working unchanged.
//
// Determinism contract: a window's reconstruction depends only on the
// window payload and the FistaConfig — never on thread count, submission
// interleaving, or queue capacity — so per-window results are
// bit-identical across any of those.  Sensing matrices are built serially
// under a mutex at submit time and published read-only to workers through
// the queue's release/acquire edge; completion *order* is the only
// nondeterministic output, and the batch wrapper sorts it away.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cs/fista.hpp"
#include "cs/pipeline.hpp"
#include "cs/sensing_matrix.hpp"
#include "host/payload_pool.hpp"
#include "host/slo_tracker.hpp"
#include "host/solve_cost_model.hpp"
#include "host/work_queue.hpp"
#include "sig/adc.hpp"
#include "sig/types.hpp"

namespace wbsn::host {

/// One measurement window as it arrives from a node: the measurements plus
/// the metadata needed to rebuild the (seeded) sensing operator host-side.
struct CompressedWindow {
  std::uint32_t patient_id = 0;
  std::uint32_t window_index = 0;    ///< Per-patient sequence number.
  std::uint64_t matrix_seed = 0;     ///< Seed shared with the node.
  std::uint32_t window_samples = 0;  ///< n (columns of Phi).
  std::uint32_t ones_per_column = 4; ///< Sparse-binary density d.
  /// Queue lane on the host: urgent windows (tagged by the node's AF
  /// pathway, cls::af_urgent_spans, or directly by the caller) jump the
  /// reconstruction backlog and are shed last.  Never affects values.
  cs::WindowPriority priority = cs::WindowPriority::kRoutine;
  /// Opaque routing tag, echoed verbatim into WindowResult::route_tag and
  /// never read by the engine.  The coordinator stores the submission
  /// epoch here so a result polled from a shard can be composed into the
  /// same epoch-tagged composite ticket its submit() returned, even when
  /// the fleet was resized while the window was in flight.
  std::uint32_t route_tag = 0;
  std::vector<double> measurements;  ///< y, already scaled to mV.
  /// Optional ground truth (test/bench only; empty in production) for SNR.
  std::vector<double> reference;
};

/// Reconstruction output for one window.
struct WindowResult {
  std::uint32_t patient_id = 0;
  std::uint32_t window_index = 0;
  cs::WindowPriority priority = cs::WindowPriority::kRoutine;  ///< Echo of the input lane.
  std::uint32_t route_tag = 0;    ///< Echo of CompressedWindow::route_tag.
  std::uint64_t ticket = 0;       ///< Engine-wide submission sequence number.
  std::vector<double> signal;     ///< Reconstructed time-domain window.
  double snr_db = 0.0;            ///< NaN when no reference was attached.
  int iterations = 0;
  /// The window's own solve wall time, excluding queue wait.  e2e_ms is
  /// the SLO-relevant number.
  double latency_ms = 0.0;
  double e2e_ms = 0.0;            ///< Enqueue -> complete (the SLO latency).
};

/// Per-patient aggregate over one batch.
struct PatientStats {
  std::uint32_t patient_id = 0;
  std::size_t windows = 0;
  double mean_snr_db = 0.0;  ///< Over windows with a reference (NaN if none).
  double mean_latency_ms = 0.0;
  double max_latency_ms = 0.0;
};

struct BatchResult {
  std::vector<WindowResult> windows;   ///< Same order as the input batch.
  std::vector<PatientStats> patients;  ///< Sorted by patient_id.
  double wall_seconds = 0.0;           ///< Batch wall time, submit to drain.
  double records_per_second = 0.0;     ///< windows.size() / wall_seconds.
};

/// Per-patient aggregation over completed windows, sorted by patient_id.
/// Deterministic (serial, input order).
std::vector<PatientStats> aggregate_patient_stats(std::span<const WindowResult> windows);

/// The batch wrapper shared by the engine and the fabric: submits every
/// window (`submit` returns its ticket), drains, and restores input order
/// by ticket.  Results whose ticket no submission returned — leftovers of
/// streaming traffic the caller never polled — are discarded.
BatchResult reconstruct_batch(
    std::span<const CompressedWindow> batch,
    const std::function<std::uint64_t(const CompressedWindow&)>& submit,
    const std::function<std::vector<WindowResult>()>& drain);

/// The cost of handing one window to a sleeping worker, in µs: the wake
/// itself, the worker publishing the result and going back to sleep.
/// Measured at about 15-20 µs of worker CPU per window on a shared 4-core
/// x86 KVM host (per-thread ticks at 2,500 windows/s, where the worker
/// sleeps for well under a millisecond).  A wake costs more the longer
/// the thread slept: a two-thread pipe ping-pong on the same host costs
/// about 17 µs of CPU per wake after 1 ms idle and about 43 µs after 5 ms,
/// and at 100 windows/s per shard a worker sleeps 7-14 ms between windows.
/// So this is a floor.  A window whose predicted solve is cheaper costs
/// less solved by the thread that admitted it, which is what
/// Solver::kCallerIfCheap asks for.  Not a knob: today's solves sit far on
/// either side (a 1-iteration 128-sample solve about 4 µs, a production
/// 512-sample one 300-500 µs).
inline constexpr std::uint64_t kWorkerHandoffUs = 20;

/// Who solves a window admitted by try_submit()/try_submit_step().
enum class Solver : std::uint8_t {
  /// Wake a worker for it: every in-process caller.
  kWorker,
  /// An event loop that admits windows on its own thread.  A window is
  /// *held* — kept on a private list, with no worker wake — when its
  /// per-shape (or pinned) solve estimate is non-zero and below
  /// kWorkerHandoffUs, or when the engine is idle at its admission (no
  /// other window queued, held or being solved).  Work-first: the thread
  /// that has a lone window solves it, saving the worker's wake and the
  /// wake back; bursts and saturation still spread across the pool.  One
  /// thread admits this way, and it runs solve_held() before it blocks,
  /// drains or sleeps: no worker solves a held window, so drain() and
  /// drain_patient() would wait forever on one.  A held window counts as
  /// in flight from its admission and is never a shed victim.  Every
  /// window of an engine without workers goes as kWorker.
  kCallerIfCheap,
};

struct EngineConfig {
  /// Worker threads.  0 = solve in the calling thread during poll()/
  /// drain() (serial reference mode); N >= 1 spawns N persistent workers.
  int threads = 0;
  /// Admission bound: maximum windows in flight (submitted but not yet
  /// solved); see in_flight_capacity().
  std::size_t queue_capacity = 1024;
  /// Deadline-aware load shedding.  When admission is at capacity and the
  /// backlog predicts a deadline miss, drop the queued window with the
  /// worst predicted overshoot (routine lane first; the urgent lane is
  /// only eligible when the arrival itself is urgent) and admit the new
  /// arrival into its slot.  Off (the default) keeps binary admission:
  /// try_submit just reports backpressure.  Requires slo.deadline_ms > 0
  /// and a solve-time signal (shed_solve_estimate_ms or at least one
  /// completed solve) to act; until then it falls back to rejection.
  bool deadline_shedding = false;
  /// Per-window solve-time estimate feeding the shed predictor, in ms.
  /// 0 (default) uses the engine's measured EWMA of completed solves.
  double shed_solve_estimate_ms = 0.0;
  /// Invoked (on the thread that made it: a worker, or a caller solving
  /// inline) every time the engine makes progress a
  /// blocked producer could be waiting on: a result was published and its
  /// in-flight slot released, or a queued window was shed.  Fires AFTER
  /// the slot is released, so a hook-driven retry of try_submit_step()
  /// that still fails proves the engine was full again, not that the
  /// wakeup raced the release.  Used by the shard server to
  /// re-arm its event loop for deferred completions.  Must be cheap and
  /// must not call back into the engine.  Null (default) disables.
  std::function<void()> progress_hook;
  /// LRU capacity of the sensing-matrix cache, in matrices (one per
  /// distinct (seed, m, n, d)); 0 = unbounded.  Evicted matrices are
  /// rebuilt deterministically on the next miss, and in-flight windows
  /// keep their matrix alive regardless (shared ownership), so eviction
  /// never changes results — it only bounds memory across seed churn.
  std::size_t matrix_cache_capacity = 64;
  /// Bound on the per-patient tracker map: one SloTracker per patient_id
  /// alongside the engine-wide one (see patient_slo_snapshots()).  Each
  /// tracker is a few KB and lives for the engine lifetime — recording
  /// threads hold raw pointers, so entries are never evicted.  Ids beyond
  /// the cap simply go untracked in the breakdown; the engine-wide tracker
  /// still counts them.  0 = unbounded.
  std::size_t max_tracked_patients = 4096;
  /// Shared payload pool (payload_pool.hpp).  When set, the engine recycles
  /// every consumed window's measurement/reference buffers back into it
  /// after the solve and draws result-signal buffers from it before the
  /// solve, making the steady-state submit->solve->poll cycle
  /// allocation-free end to end (producers acquire_window() from the same
  /// pool; consumers recycle polled results into it).  Shared_ptr so one
  /// pool spans producers, engines, and every shard the fabric builds
  /// across resize() epochs.  Null (the default) keeps plain allocation.
  std::shared_ptr<PayloadPool> payload_pool;
  cs::FistaConfig fista{};
  SloConfig slo{};
};

/// One patient's latency/throughput breakdown (patient_slo_snapshots()).
struct PatientSlo {
  std::uint32_t patient_id = 0;
  SloSnapshot slo;
};

class ReconstructionEngine {
 public:
  explicit ReconstructionEngine(EngineConfig cfg = {});
  ~ReconstructionEngine();

  ReconstructionEngine(const ReconstructionEngine&) = delete;
  ReconstructionEngine& operator=(const ReconstructionEngine&) = delete;

  // --- Streaming interface -------------------------------------------------

  /// Hands one window to the engine.  Returns the window's ticket on
  /// success; std::nullopt when the engine is at capacity and nothing
  /// could be shed (backpressure — retry after poll()ing).  With
  /// deadline_shedding on, an at-capacity arrival is admitted anyway when
  /// a queued window is already predicted to miss its deadline: that
  /// window is dropped instead (see SloSnapshot::shed_*).  Thread-safe;
  /// `window` is untouched on rejection.
  std::optional<std::uint64_t> try_submit(CompressedWindow&& window,
                                          Solver solver = Solver::kWorker);

  /// Blocking submit: waits out backpressure (workers draining the
  /// backlog; with threads == 0 it solves pending windows inline to make
  /// room) and returns the ticket.  Never sheds queued work and never
  /// counts as a rejection — a caller willing to wait gets admission
  /// without costing anyone else's window.
  std::uint64_t submit(CompressedWindow window);

  /// One non-blocking step of a blocking submit driven by an external
  /// event loop: identical admission to submit() (never sheds queued work)
  /// but returns std::nullopt instead of waiting when the engine is full.
  /// Unlike try_submit(), a failure is NOT counted as a rejection — the
  /// caller is backpressure-waiting (typically re-armed by progress_hook),
  /// not bouncing the window.  `window` is untouched on failure.
  std::optional<std::uint64_t> try_submit_step(CompressedWindow&& window,
                                               Solver solver = Solver::kWorker);

  /// Solves every window admitted held (Solver::kCallerIfCheap) on the
  /// calling thread, urgent lane first and FIFO within each lane, and
  /// returns how many: exactly the held windows, never a worker-bound
  /// one.  Call it only from the thread that admits with kCallerIfCheap.
  /// The progress hook runs for these completions on the calling thread.
  std::size_t solve_held();

  /// Windows admitted for a worker: every admission of an engine with
  /// workers that was not held.  Each notifies the pool, which is a
  /// thread wake only when a worker was asleep, so under load this
  /// counts more handoffs than wakes.
  std::uint64_t worker_handoffs() const {
    return worker_handoffs_.load(std::memory_order_relaxed);
  }

  /// Returns one completed window in completion order, or std::nullopt if
  /// none is ready.  With threads == 0 this runs the solver inline on the
  /// oldest pending window first.  Thread-safe.
  std::optional<WindowResult> poll();

  /// Blocks until nothing is in flight and returns all results not yet
  /// poll()ed, in completion order.  The calling thread helps solve when
  /// the engine has no workers.  Thread-safe (concurrent pollers simply
  /// split the results).
  std::vector<WindowResult> drain();

  /// Windows currently in flight (submitted, not yet solved).
  std::size_t in_flight() const { return in_flight_.load(std::memory_order_acquire); }

  /// Completed results waiting in the completion list for poll()/drain().
  std::size_t ready_results() const;

  /// In-flight (submitted, not yet solved or shed) windows for one
  /// patient.  Thread-safe.
  std::size_t patient_pending(std::uint32_t patient_id) const;

  /// Per-patient drain hook for live resharding: blocks until
  /// patient_pending(patient_id) == 0 — every window of that patient has
  /// either completed (its result may still be waiting for poll()) or been
  /// shed.  With threads == 0 the calling thread solves pending windows
  /// inline.  A concurrent submitter can re-open the patient's backlog
  /// after this returns; callers that need quiescence must stop routing
  /// that patient here first (the coordinator flips its epoch before
  /// draining).
  void drain_patient(std::uint32_t patient_id);

  /// Admission bound actually in force.
  std::size_t in_flight_capacity() const { return capacity_; }

  /// Windows queued for a worker in the given priority lane (held windows
  /// and windows being solved are not counted).
  std::size_t backlog(cs::WindowPriority priority) const {
    return queue_.lane_size(priority == cs::WindowPriority::kUrgent);
  }

  /// Latency/throughput/deadline statistics since construction.
  const SloTracker& slo() const { return slo_; }

  /// Per-lane breakdown of the same statistics: every window is recorded
  /// both engine-wide and in its priority lane's tracker, so under mixed
  /// traffic this separates alarm-path latency from routine telemetry.
  const SloTracker& lane_slo(cs::WindowPriority priority) const {
    return lane_slo_[lane_index(priority)];
  }

  /// Per-patient SLO breakdown, sorted by patient_id (at most
  /// max_tracked_patients entries).  Same approximation caveats as
  /// SloTracker::snapshot() while traffic is in flight.
  std::vector<PatientSlo> patient_slo_snapshots() const;

  /// Removes the patient's tracker from this engine's breakdown map and
  /// returns its state (SloTracker::extract_state), or nullopt when
  /// untracked.  The reshard handoff: the coordinator drains the patient
  /// and sweeps its parked results first, so no later event of the
  /// patient's windows can record into the removed tracker.  Frees the
  /// patient's slot under max_tracked_patients.
  std::optional<SloTrackerState> extract_patient_slo(std::uint32_t patient_id);

  /// Adds an extracted state to this engine's tracker for `patient_id`
  /// (created if absent; folded in if a submission beat the handoff —
  /// counts conserved either way).  Returns false when the patient map is
  /// at max_tracked_patients capacity (the history is dropped from the
  /// breakdown; engine-wide counters are unaffected, matching how a new
  /// patient beyond the cap goes untracked).
  bool adopt_patient_slo(std::uint32_t patient_id, const SloTrackerState& state);

  /// Sensing matrices currently cached (bounded by matrix_cache_capacity).
  std::size_t cached_matrices() const;

  /// The per-window solve-time estimate the shed predictor would use for a
  /// window with `measurements` rows and `samples` columns, in ms: the
  /// configured shed_solve_estimate_ms override when set, else the
  /// measured EWMA for that exact (m, n) shape, else the shape-blind
  /// global EWMA.  0 until any solve has completed — solve cost scales
  /// with problem size, so under mixed window shapes the per-shape value
  /// is what makes the deadline forecast honest.
  double solve_estimate_ms(std::uint32_t measurements, std::uint32_t samples) const;

  /// The priced backlog: the sum of every in-flight window's admission-time
  /// solve-cost estimate divided across the worker pool, in ms — how long
  /// the queue would take to drain if nothing else arrived.  0 until any
  /// solve-cost signal exists.  This is the pressure signal behind the
  /// shard server's CR hints.
  double backlog_wait_ms() const;

  /// The per-shape solve-cost model (diagnostics/tests).
  const SolveCostModel& cost_model() const { return cost_model_; }

  // --- Batch wrapper -------------------------------------------------------

  /// Reconstructs every window in the batch and blocks until done; results
  /// are returned in input order.  A thin wrapper over submit()/drain()
  /// that waits out overload instead of shedding (deadline_shedding does
  /// not apply inside the wrapper — every window comes back).  Not
  /// reentrant: one batch at a time (guarded internally); do not call
  /// concurrently with streaming submissions (the drain would steal them).
  BatchResult reconstruct(std::span<const CompressedWindow> batch);

  int thread_count() const { return static_cast<int>(workers_.size()); }

 private:
  /// One window's node for its whole life inside the engine: queued work
  /// entry first, then (same allocation) completion-list node — `result`
  /// is filled in place by the solve and `next` links it into done_.
  /// Nodes cycle through item_pool_, so steady state news nothing.
  struct WorkItem {
    CompressedWindow window;
    /// Shared ownership: an LRU eviction of the cache entry must not
    /// invalidate a matrix that queued windows still reference.
    std::shared_ptr<const cs::SensingMatrix> phi;
    /// Resolved once at submit, with shared ownership: the completion path
    /// records without touching the tracker map, and an extracted tracker
    /// stays valid for any window still holding it.
    std::shared_ptr<SloTracker> patient_slo;
    std::uint64_t ticket = 0;
    /// The admission-time solve-cost estimate this window charged into
    /// pending_cost_us_ — remembered so completion/shed releases exactly
    /// what was charged.
    std::uint64_t charged_cost_us = 0;
    std::chrono::steady_clock::time_point enqueue_time{};
    WindowResult result;
    WorkItem* next = nullptr;  ///< Intrusive completion-list link.
  };

  static std::size_t lane_index(cs::WindowPriority priority) {
    return priority == cs::WindowPriority::kUrgent ? 1 : 0;
  }

  void worker_loop();
  /// Pops one queued window (urgent first) and solves it; false when none
  /// was queued.
  bool help_some();
  /// Reserves one in-flight slot; false when at capacity.
  bool reserve_slot();
  /// Admission core shared by try_submit (shedding per config, rejects
  /// counted by the caller) and the blocking paths (submit()/
  /// reconstruct(): never shed — a waiter must not drop queued work —
  /// and retries are backpressure, not rejections).
  std::optional<std::uint64_t> try_submit_impl(CompressedWindow&& window, bool allow_shedding,
                                               Solver solver);
  /// Deadline-aware shedding: drops the queued window with the worst
  /// predicted deadline overshoot and returns true, transferring its
  /// in-flight reservation to the caller's arrival.  False when no queued
  /// window is predicted to miss (or no solve-time signal exists yet).
  /// Only an urgent arrival may displace an urgent window.
  bool shed_predicted_miss(cs::WindowPriority arrival_priority);
  /// Solves one popped window, records its completion and publishes the
  /// result.
  void process_one(WorkItem* item);
  /// Builds/reuses the sensing matrix a window needs; bounded LRU keyed
  /// by (seed, m, n, d).  Construction is a pure function of the key, so a
  /// rebuilt matrix is bit-identical to the evicted one.
  std::shared_ptr<const cs::SensingMatrix> prepare_matrix(const CompressedWindow& window);
  /// Admission-time solve-cost estimate of one window's (m, n) shape,
  /// microseconds (0 when no signal exists yet).
  std::uint64_t charge_estimate_us(const CompressedWindow& window) const;
  /// The per-patient tracker for `patient_id` (created on first use), or
  /// nullptr once max_tracked_patients ids are tracked.
  std::shared_ptr<SloTracker> patient_tracker(std::uint32_t patient_id);
  /// Decrements the patient's pending count and wakes drain_patient()
  /// waiters.
  void retire_pending(std::uint32_t patient_id);
  /// Returns a window's payload buffers to the payload pool (or frees
  /// them when no pool is configured).  Metadata fields are left alone.
  void release_window_payload(CompressedWindow& window);
  /// Resets a node's state and returns it to item_pool_.  Payload buffers
  /// must already be released (the pool must not collect empty shells).
  void recycle_item(WorkItem* item);

  EngineConfig cfg_;
  std::size_t capacity_ = 1;           ///< max(1, cfg_.queue_capacity).
  TwoLaneWorkQueue<WorkItem*> queue_;  ///< Pending (unsolved) windows, two lanes.
  /// WorkItem freelist.  Sized past the in-flight bound so nodes parked in
  /// the completion list also recycle; a deeper unpolled backlog degrades
  /// to plain allocation instead of growing the pool.
  ObjectPool<WorkItem> item_pool_;
  std::vector<std::thread> workers_;
  SloTracker slo_;
  SloTracker lane_slo_[cs::kPriorityLanes];  ///< [0]=routine, [1]=urgent.
  /// Per-(m, n) solve-cost model (solve_cost_model.hpp) pricing the shed
  /// predictor and the priced backlog.  Its override_ms is wired to
  /// cfg_.shed_solve_estimate_ms at construction.
  SolveCostModel cost_model_;
  /// Sum of the admission-time solve-cost estimates (microseconds) of
  /// every window currently queued or solving — the backlog priced in
  /// time rather than windows.  Charged at admission, released exactly at
  /// completion/shed.  Feeds backlog_wait_ms() and the CR-hint pressure
  /// signal; counters never affect values.
  std::atomic<std::uint64_t> pending_cost_us_{0};
  /// Held windows, [0]=routine, [1]=urgent.  No lock: the admitting
  /// thread alone pushes, and pops in solve_held().
  RingDeque<WorkItem*> caller_lanes_[cs::kPriorityLanes];
  /// Windows admitted for a worker; see worker_handoffs().
  std::atomic<std::uint64_t> worker_handoffs_{0};

  // Bounded LRU cache of seeded sensing operators, keyed by
  // (seed, m, n, d).  lru_ orders keys most-recent-first; each map value
  // carries its lru_ position for O(log n) touch.
  using MatrixKey = std::tuple<std::uint64_t, std::size_t, std::size_t, std::size_t>;
  struct CachedMatrix {
    std::shared_ptr<const cs::SensingMatrix> phi;
    std::list<MatrixKey>::iterator lru_pos;
  };
  mutable std::mutex matrices_mutex_;
  std::map<MatrixKey, CachedMatrix> matrices_;
  std::list<MatrixKey> lru_;

  // Per-patient SLO trackers.  shared_ptr (SloTracker is non-movable):
  // recording threads keep the object alive across map rebalancing and
  // extraction.
  mutable std::mutex patient_slo_mutex_;
  std::map<std::uint32_t, std::shared_ptr<SloTracker>> patient_slo_;

  // Per-patient in-flight (unsolved) window counts, feeding the
  // drain_patient() reshard hook.  Zero entries are retained (erasing and
  // re-inserting would cost a map-node allocation per window for a stable
  // fleet); a sweep evicts them only if patient-id churn grows the map
  // past pending_sweep_threshold_.
  mutable std::mutex pending_mutex_;
  std::condition_variable pending_cv_;  ///< drain_patient() waits here.
  std::unordered_map<std::uint32_t, std::size_t> patient_pending_;
  std::size_t pending_sweep_threshold_ = 0;  ///< Set from capacity_ at construction.

  std::mutex batch_mutex_;  ///< Serializes reconstruct() calls.

  std::mutex work_mutex_;
  std::condition_variable work_cv_;  ///< Workers sleep here between items.

  /// Completed results, in completion order, until poll()/drain() takes
  /// them.  Unbounded by design: completion must never block on a slow
  /// retriever, so the admission gate only covers the unsolved backlog.
  /// An intrusive singly-linked list of the windows' own WorkItem nodes
  /// (WorkItem::next): publication is a pointer splice, retrieval returns
  /// the node to item_pool_ — no container, no per-completion allocation.
  /// Each node still carries its per-patient tracker (resolved at submit,
  /// engine-lifetime stable) so poll()'s retrieve accounting needs no map
  /// lookup and no second lock.
  mutable std::mutex done_mutex_;    ///< mutable: ready_results() is const.
  std::condition_variable done_cv_;  ///< drain()/submit() wait here.
  WorkItem* done_head_ = nullptr;
  WorkItem* done_tail_ = nullptr;
  std::size_t done_count_ = 0;

  /// Submitted but not yet solved.  The admission reservation happens here
  /// (CAS against in_flight_capacity()), which is what guarantees the
  /// bounded work ring can never reject an internal push.
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> next_ticket_{0};
  std::atomic<bool> stop_{false};
};

/// Node-side compression of a whole multi-lead record into engine work
/// items: quantize -> sparse-binary encode -> scale measurements to mV.
/// Mirrors cs/pipeline.cpp so engine output is comparable to the Figure 5
/// pipeline.  Windows are emitted lead-major, window_index increasing.
struct RecordCompressionConfig {
  double cr_percent = 50.0;
  std::size_t window_samples = 512;
  std::size_t ones_per_column = 4;
  std::uint64_t matrix_seed = 0xC0FFEE;
  sig::AdcConfig adc{};
  /// Attach the quantized-then-dequantized window as SNR reference.
  bool keep_reference = true;
  /// Clinically urgent stretches of the record, as within-lead sample
  /// ranges (typically cls::af_urgent_spans output).  Every window
  /// overlapping a span — in any lead, AF is a rhythm-level property — is
  /// tagged cs::WindowPriority::kUrgent for the host's priority lane.
  std::vector<sig::SampleSpan> urgent_spans;
};

std::vector<CompressedWindow> compress_record(const sig::Record& record,
                                              std::uint32_t patient_id,
                                              const RecordCompressionConfig& cfg = {});

}  // namespace wbsn::host
