// ShardServer — one ReconstructionEngine behind a TCP listener.
//
// The process half of the cross-machine fabric split: where
// host::ReconstructionFabric owned N engines in one address space, a
// deployment now runs N ShardServer processes (see shard_serverd_main.cpp)
// and one RoutingClient that routes patients across them with the same
// consistent-hash ring.  The server itself is deliberately dumb: it speaks
// wbsn-wire v8 (wire_format.hpp), maps each request frame onto the
// corresponding ReconstructionEngine verb, and knows nothing about rings,
// epochs, or topology — all placement intelligence lives client-side, so
// growing the fleet never requires touching a running shard.
//
// Concurrency model: a single-threaded poll(2) event loop owns the
// listener and every connection (nonblocking sockets, per-connection
// receive/transmit buffers); the engine's own worker pool provides the
// compute parallelism.  Request frames are serviced inline in arrival
// order per connection.  Verbs that must wait — SUBMIT_BATCH with the
// blocking flag (admission backpressure) and
// DRAIN_PATIENT (patient quiescence) — never block the loop when the
// engine has workers: they park as a per-connection *deferred completion*,
// and the loop re-runs the parked step until it can send the response.
// The engine's progress_hook runs each time a slot frees or a patient
// retires, but pokes the self-pipe only while the loop has armed it: the
// loop arms it while some connection holds a parked or deferred verb, and
// the first hook to run after that disarms it and writes one byte.  A
// burst of completions thus costs one write, and with no verb waiting
// none at all.  Frames behind a deferred verb wait (responses stay in
// request order per connection); other connections keep flowing.  With a
// serial engine (threads == 0) the calling thread IS the solver, so those
// verbs run inline exactly as before.
//
// Which thread solves: handing a window to a sleeping worker costs three
// thread wakes (the loop's futex wake of the worker, the worker's own
// wake, and its self-pipe wake back to the loop when a verb waits), at
// least host::kWorkerHandoffUs and more the longer the worker slept.  So
// the loop admits with host::Solver::kCallerIfCheap, which keeps a window
// *held*, with no worker wake, when its per-shape (or pinned) solve
// estimate is non-zero and below that constant, or when the engine is idle
// (no other window queued, held or being solved).  No worker sees a held
// window, and the loop solves exactly those before it acknowledges the
// frame that admitted them (and inside a deferred submit before it gives
// up on a full engine), urgent first, through the engine's own
// solve/complete path.  The SUBMIT_BATCH_ACK then carries their results,
// and every other result ready by then, so the client needs no POLL_MANY
// round trip for them.  A dear window that arrives behind a queued one, or
// while a worker solves, goes to a worker, so `threads` serves bursts and
// saturation: a loop busy solving reads no frames and would starve an
// already-awake pool.
// So no held window is left between frames (the engine's contract): the
// loop never sleeps in poll(2) or parks a DRAIN_PATIENT on one.  The
// progress hook stays silent for progress made on the loop's own thread:
// the loop re-checks its waiting verbs instead, at once when that
// progress came during those checks.
//
// POLL_MANY is a long-poll on a threaded engine: with nothing ready it
// parks, and the loop answers it with one RESULT_BATCH as soon as a
// completion's progress-hook wake finds a result ready — or, if the next
// frame on that connection arrives first, just before handling that frame
// (possibly with zero results), so responses stay in request order.  A
// serial engine answers at once: its solve runs inside engine.poll(), which
// is also why its SUBMIT_BATCH_ACKs carry no results.
//
// Shutdown: stop() from any thread (self-pipe wakes the loop), or a BYE
// frame when cfg.stop_on_bye is set — the daemon's orderly-exit path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "host/reconstruction_engine.hpp"
#include "net/socket.hpp"
#include "net/wire_format.hpp"

namespace wbsn::net {

/// Upper bound on results returned per POLL_MANY, whatever the client
/// asked (0 asks for this many), and per SUBMIT_BATCH_ACK: it caps what one
/// hostile request can make the server encode.
inline constexpr std::uint32_t kMaxPollResults = 4096;

struct ShardServerConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the kernel's pick back via port() after start().
  std::uint16_t port = 0;
  host::EngineConfig engine{};
  WireEncodeOptions wire{};
  /// Exit the run() loop after answering a BYE frame (daemon mode).
  bool stop_on_bye = false;
  /// CR advisory every SNAPSHOT carries while the shard is under backlog
  /// pressure, percent (e.g. 70 steers nodes to encode at CR 70 until the
  /// pressure clears).  0 (default) disables the advisory: SNAPSHOT
  /// always answers "no pressure".
  double hint_cr_percent = 0.0;
  /// Pressure threshold for the advisory: active while the engine's
  /// backlog_wait_ms() exceeds this many deadlines (engine slo.deadline_ms).
  /// <= 0 makes the advisory unconditional whenever hint_cr_percent > 0 —
  /// the deterministic setting tests use.
  double hint_backlog_deadlines = 1.0;
  /// Optional extra wake descriptor polled by run(): when it becomes
  /// readable the loop stops, exactly as if stop() had been called — but
  /// with no cross-thread call into the server.  This is the daemon's
  /// async-signal-safe shutdown path: a signal handler may only write() a
  /// byte to a pipe, and the loop (the "main thread" of the server) does
  /// the actual stop.  The server polls but never closes or drains this
  /// fd; -1 (default) disables it.
  int stop_fd = -1;
};

class ShardServer {
 public:
  explicit ShardServer(ShardServerConfig cfg);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Binds the listener and builds the engine.  False (errno set) when the
  /// bind fails.  Must be called before run().
  bool start();

  /// The bound port (the kernel's pick when cfg.port was 0).
  std::uint16_t port() const { return listener_.port(); }

  /// Blocking event loop; returns after stop() or (with stop_on_bye) a
  /// BYE.  Call from a dedicated thread when embedding in-process.
  void run();

  /// Requests run() to return.  Thread-safe, idempotent.
  void stop();

  host::ReconstructionEngine& engine() { return *engine_; }

  /// Self-pipe bytes the progress hook has written (stop() not counted):
  /// one per wake of a waiting verb, none while no verb waits.
  std::uint64_t wake_writes() const { return wake_writes_.load(std::memory_order_relaxed); }

  /// Windows the event loop solved itself (held admissions, see the
  /// concurrency model above) instead of handing them to a worker.
  std::uint64_t loop_solves() const { return loop_solves_.load(std::memory_order_relaxed); }

  /// Windows the loop admitted for a worker (a thread wake only when the
  /// worker was asleep).
  std::uint64_t worker_handoffs() const { return engine_->worker_handoffs(); }

  /// Results sent inside SUBMIT_BATCH_ACKs.
  std::uint64_t ack_results() const { return ack_results_.load(std::memory_order_relaxed); }

  /// RESULT_BATCH frames sent: one per POLL_MANY answered.
  std::uint64_t poll_answers() const { return poll_answers_.load(std::memory_order_relaxed); }

 private:
  struct Connection {
    Fd fd;
    std::vector<std::uint8_t> rx;
    std::vector<std::uint8_t> tx;
    std::size_t tx_sent = 0;  ///< Prefix of tx already on the socket.
    bool negotiated = false;
    bool close_after_flush = false;

    /// A blocking verb parked mid-flight so the event loop stays live.
    /// While one is pending, no further frames are consumed from this
    /// connection (responses are strictly in request order per conn).
    enum class Deferred { kNone, kSubmit, kDrain };
    Deferred deferred = Deferred::kNone;
    std::vector<host::CompressedWindow> deferred_windows;
    std::size_t deferred_next = 0;  ///< First window not yet admitted.
    std::vector<SubmitBatchAckEntry> deferred_acks;
    std::uint32_t deferred_patient = 0;  ///< kDrain target.

    /// max_results of a parked POLL_MANY; 0 = none parked.  At most one:
    /// the next frame releases it before anything else happens.
    std::uint32_t parked_poll = 0;
  };

  /// Drains complete frames from conn.rx; false when the connection must
  /// be dropped without ceremony (desynchronized or corrupt stream).
  bool process_rx(Connection& conn);
  void handle_frame(Connection& conn, const FrameView& frame);
  /// Runs one step of the connection's parked verb; appends the response
  /// and clears the deferred state once it completes.
  void advance_deferred(Connection& conn);
  /// Parks a blocking SUBMIT_BATCH for deferred admission, or answers
  /// immediately when every window fits right now.
  void submit_blocking(Connection& conn, std::vector<host::CompressedWindow>&& windows);
  /// Solves, on the loop's thread, every window the loop admitted held;
  /// returns how many it solved.  Runs before every SUBMIT_BATCH_ACK and
  /// inside a deferred submit, so the loop never sleeps with a held window
  /// unsolved.
  std::size_t solve_held();
  /// Encodes up to `max_results` ready results into batch_staging_,
  /// stopping once they and the `frame_bytes` the frame already holds pass
  /// the byte budget; returns how many.
  std::uint64_t stage_ready_results(std::uint32_t max_results, std::size_t frame_bytes);
  /// Solves the held windows, then appends the SUBMIT_BATCH_ACK for `acks`
  /// carrying every result ready by then (none on a serial engine).
  void acknowledge(Connection& conn, std::span<const SubmitBatchAckEntry> acks);
  /// Answers the connection's parked POLL_MANY with one RESULT_BATCH of
  /// whatever is ready now (possibly nothing) and clears it.
  void answer_poll(Connection& conn);
  void send_error(Connection& conn, ErrorCode code, const std::string& detail,
                  bool close_after);
  /// Pushes conn.tx to the socket as far as the kernel allows.
  void flush(Connection& conn);

  ShardServerConfig cfg_;
  TcpListener listener_;
  /// Self-pipe: stop() and the engine's progress_hook wake the poll loop
  /// (both ends nonblocking — a full pipe already means a wake is pending).
  /// Declared before engine_, like the two atomics below, so the pipe
  /// outlives the worker threads that write to it through the hook.
  Fd wake_rd_, wake_wr_;
  /// True while the loop waits for engine progress (a parked POLL_MANY or
  /// a deferred SUBMIT_BATCH/DRAIN_PATIENT); the hook writes the pipe only
  /// when its exchange(false) finds it set.
  std::atomic<bool> wake_armed_{false};
  std::atomic<std::uint64_t> wake_writes_{0};
  std::atomic<std::uint64_t> loop_solves_{0};
  std::atomic<std::uint64_t> ack_results_{0};
  std::atomic<std::uint64_t> poll_answers_{0};
  /// Completions and sheds made on the loop's own thread (the hook's
  /// silent branch); loop thread only.  run() compares it across its
  /// checks to decide whether it may sleep.
  std::uint64_t self_progress_ = 0;
  std::unique_ptr<host::ReconstructionEngine> engine_;
  std::vector<std::unique_ptr<Connection>> conns_;
  /// Staging buffer for result bodies (single-threaded loop).
  std::vector<std::uint8_t> batch_staging_;
  std::atomic<bool> stopping_{false};
};

}  // namespace wbsn::net
