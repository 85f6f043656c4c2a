#include "net/shard_server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <optional>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

namespace wbsn::net {

namespace {
constexpr std::size_t kRecvChunk = 64 * 1024;

/// The server whose event loop runs on this thread, if any.  The progress
/// hook writes no wake byte for a completion or shed made on the loop's
/// own thread: the loop re-checks its waiting verbs before it sleeps.
thread_local const ShardServer* tl_loop_server = nullptr;
}  // namespace

ShardServer::ShardServer(ShardServerConfig cfg) : cfg_(std::move(cfg)) {}

ShardServer::~ShardServer() { stop(); }

bool ShardServer::start() {
  int pipefd[2] = {-1, -1};
  if (::pipe(pipefd) != 0) return false;
  wake_rd_ = Fd(pipefd[0]);
  wake_wr_ = Fd(pipefd[1]);
  if (!set_nonblocking(wake_rd_.get())) return false;
  // The write end is poked from engine worker threads (progress hook) and
  // must never block them: a full pipe already has a wake pending.
  if (!set_nonblocking(wake_wr_.get())) return false;
  if (!listener_.listen(cfg_.host, cfg_.port)) return false;
  // Every completion or shed runs the hook.  It wakes the loop only
  // while a verb waits for one (wake_armed_, see run()), and then once:
  // taking the flag down means a burst of completions costs one pipe
  // write.  Capturing `this` and the raw fd is safe: both
  // atomics and wake_wr_ outlive engine_ (declaration order), and the
  // engine joins its workers before destruction returns.
  const int wake_fd = wake_wr_.get();
  cfg_.engine.progress_hook = [this, wake_fd] {
    if (tl_loop_server == this) {
      ++self_progress_;  // Only ever touched on the loop's own thread.
      return;
    }
    if (!wake_armed_.exchange(false)) return;
    const char byte = 1;
    (void)!::write(wake_fd, &byte, 1);
    wake_writes_.fetch_add(1, std::memory_order_relaxed);
  };
  engine_ = std::make_unique<host::ReconstructionEngine>(cfg_.engine);
  return true;
}

void ShardServer::stop() {
  stopping_.store(true, std::memory_order_release);
  if (wake_wr_.valid()) {
    const char byte = 1;
    (void)!::write(wake_wr_.get(), &byte, 1);
  }
}

void ShardServer::run() {
  tl_loop_server = this;
  std::vector<pollfd> pfds;
  // pfds layout: [0] wake pipe, [1] listener, [2] optional stop_fd, then
  // one slot per connection starting at `base`.
  const std::size_t base = cfg_.stop_fd >= 0 ? 3 : 2;
  int timeout_ms = -1;
  while (!stopping_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back({wake_rd_.get(), POLLIN, 0});
    pfds.push_back({listener_.fd(), POLLIN, 0});
    if (cfg_.stop_fd >= 0) pfds.push_back({cfg_.stop_fd, POLLIN, 0});
    for (const auto& conn : conns_) {
      short events = POLLIN;
      if (conn->tx_sent < conn->tx.size()) events |= POLLOUT;
      pfds.push_back({conn->fd.get(), events, 0});
    }
    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[0].revents & POLLIN) {
      // A short read emptied the pipe; only a full one may have left bytes.
      char scratch[64];
      while (::read(wake_rd_.get(), scratch, sizeof(scratch)) ==
             static_cast<ssize_t>(sizeof(scratch))) {
      }
    }
    // The external stop descriptor became readable: a signal handler asked
    // for shutdown.  Stop here, on the loop's own thread, where touching
    // server state is safe.  The fd is not drained — shutdown is one-way.
    if (cfg_.stop_fd >= 0 && (pfds[2].revents & (POLLIN | POLLHUP | POLLERR))) break;
    if (pfds[1].revents & POLLIN) {
      for (;;) {
        Fd conn = listener_.accept();
        if (!conn.valid()) break;
        auto c = std::make_unique<Connection>();
        c->fd = std::move(conn);
        conns_.push_back(std::move(c));
      }
    }
    // Service connections; pfds[i + base] pairs with conns_[i] (conns_
    // only mutates below, after this loop).
    for (std::size_t i = 0; i < conns_.size() && i + base < pfds.size(); ++i) {
      Connection& conn = *conns_[i];
      const short revents = pfds[i + base].revents;
      bool alive = true;
      if (revents & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (revents & POLLIN)) {
        std::uint8_t chunk[kRecvChunk];
        for (;;) {
          const long n = recv_some(conn.fd.get(), chunk, sizeof(chunk));
          if (n > 0) {
            conn.rx.insert(conn.rx.end(), chunk, chunk + n);
            if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          alive = false;  // Orderly close (0) or hard error.
          break;
        }
        if (alive) alive = process_rx(conn);
      }
      if (alive && (revents & (POLLOUT | POLLIN))) flush(conn);
      if (alive && (revents & POLLHUP) && conn.tx_sent >= conn.tx.size()) alive = false;
      if (alive && conn.close_after_flush && conn.tx_sent >= conn.tx.size()) alive = false;
      if (!alive) conn.fd.reset();
    }
    // Arm the progress hook before the checks below, while any verb
    // waits.  A completion published before the arm is seen by those
    // checks; one published after it finds the flag set and writes the
    // pipe.  So no wakeup is lost, and with nothing waiting no completion
    // wakes the loop.
    const bool waiting = std::any_of(conns_.begin(), conns_.end(), [](const auto& c) {
      return c->fd.valid() && (c->deferred != Connection::Deferred::kNone || c->parked_poll != 0);
    });
    if (waiting) {
      wake_armed_.store(true);
      std::atomic_thread_fence(std::memory_order_seq_cst);
    } else if (wake_armed_.load(std::memory_order_relaxed)) {
      wake_armed_.store(false, std::memory_order_relaxed);
    }
    // Deferred completions: re-run every parked verb (the engine's
    // progress hook — or any socket event — woke us).  When one finishes,
    // frames queued behind it on the same connection may now proceed.
    // Then answer parked polls that now have a result to carry.
    const std::uint64_t progress_at_checks = self_progress_;
    for (auto& c : conns_) {
      if (!c->fd.valid()) continue;
      if (c->deferred != Connection::Deferred::kNone) {
        advance_deferred(*c);
        if (c->deferred != Connection::Deferred::kNone) continue;
        if (!process_rx(*c)) {
          c->fd.reset();
          continue;
        }
      }
      if (c->parked_poll != 0 && engine_->ready_results() > 0) answer_poll(*c);
      flush(*c);
    }
    // A solve or shed made on this thread during those checks (a deferred
    // submit admitting held windows, say) wrote no wake byte, and a verb
    // checked before it may now be able to proceed: check again at once
    // instead of sleeping.
    timeout_ms = self_progress_ != progress_at_checks ? 0 : -1;
    std::erase_if(conns_, [](const std::unique_ptr<Connection>& c) { return !c->fd.valid(); });
  }
  conns_.clear();
  listener_.close();
  tl_loop_server = nullptr;
}

std::size_t ShardServer::solve_held() {
  const std::size_t solved = engine_->solve_held();
  if (solved > 0) loop_solves_.fetch_add(solved, std::memory_order_relaxed);
  return solved;
}

bool ShardServer::process_rx(Connection& conn) {
  std::size_t consumed = 0;
  while (true) {
    // A parked blocking verb pins the stream: responses are strictly in
    // request order per connection, so frames behind it wait until
    // advance_deferred completes it.
    if (conn.deferred != Connection::Deferred::kNone) break;
    FrameView frame;
    const auto status =
        peek_frame({conn.rx.data() + consumed, conn.rx.size() - consumed}, frame);
    if (status == FrameStatus::kNeedMore) break;
    // The next frame releases a parked poll: its answer goes first.
    if (conn.parked_poll != 0) answer_poll(conn);
    if (status == FrameStatus::kBadVersion) {
      // Structurally sound frame in a version we don't speak: refuse it
      // in-band and drop the connection — frame semantics may have
      // changed, so continuing to parse the stream would be a guess.
      send_error(conn, ErrorCode::kUnsupportedVersion,
                 "frame version outside the supported range", /*close_after=*/true);
      consumed += frame.frame_bytes;
      break;
    }
    if (status != FrameStatus::kOk) return false;  // Desync/corrupt/oversized.
    handle_frame(conn, frame);
    consumed += frame.frame_bytes;
    if (conn.close_after_flush) break;
  }
  if (consumed > 0) conn.rx.erase(conn.rx.begin(), conn.rx.begin() + consumed);
  return true;
}

void ShardServer::handle_frame(Connection& conn, const FrameView& frame) {
  auto& tx = conn.tx;
  if (!conn.negotiated) {
    if (frame.type != FrameType::kHello) {
      send_error(conn, ErrorCode::kNotNegotiated, "expected HELLO", true);
      return;
    }
    HelloPayload hello;
    if (!decode_hello(frame.payload, hello)) {
      send_error(conn, ErrorCode::kBadPayload, "malformed HELLO", true);
      return;
    }
    // This server speaks exactly one version; the range lets a later
    // client offer several.
    if (hello.min_version > kWireVersion || hello.max_version < kWireVersion) {
      send_error(conn, ErrorCode::kUnsupportedVersion, "no mutual wire version", true);
      return;
    }
    encode_hello_ack(tx, kWireVersion);
    conn.negotiated = true;
    return;
  }

  switch (frame.type) {
    case FrameType::kSubmitBatch: {
      std::uint8_t flags = 0;
      std::vector<host::CompressedWindow> windows;
      if (!decode_submit_batch(frame.payload, flags, windows,
                               cfg_.engine.payload_pool.get())) {
        send_error(conn, ErrorCode::kBadPayload, "malformed SUBMIT_BATCH", true);
        return;
      }
      if ((flags & kSubmitFlagBlocking) && engine_->thread_count() > 0) {
        submit_blocking(conn, std::move(windows));
        return;
      }
      std::vector<SubmitBatchAckEntry> acks;
      acks.reserve(windows.size());
      for (auto& window : windows) {
        std::optional<std::uint64_t> ticket;
        if (flags & kSubmitFlagBlocking) {
          // Serial engine: the calling thread is the solver, so a blocking
          // submit makes its own room — deferring would stall forever.
          ticket = engine_->submit(std::move(window));
        } else {
          ticket = engine_->try_submit(std::move(window), host::Solver::kCallerIfCheap);
        }
        acks.push_back({ticket.has_value(), ticket.value_or(0)});
      }
      acknowledge(conn, acks);
      return;
    }
    case FrameType::kPollMany: {
      std::uint32_t max_results = 0;
      if (!decode_poll_many(frame.payload, max_results)) {
        send_error(conn, ErrorCode::kBadPayload, "malformed POLL_MANY", true);
        return;
      }
      if (max_results == 0 || max_results > kMaxPollResults) max_results = kMaxPollResults;
      conn.parked_poll = max_results;
      // Park until a result is ready.  A serial engine solves inside
      // engine.poll(), so no completion would ever release it: answer now.
      if (engine_->thread_count() == 0 || engine_->ready_results() > 0) answer_poll(conn);
      return;
    }
    case FrameType::kDrainPatient: {
      std::uint32_t patient_id = 0;
      if (!decode_patient_frame(frame.payload, patient_id)) {
        send_error(conn, ErrorCode::kBadPayload, "malformed DRAIN_PATIENT", true);
        return;
      }
      if (engine_->thread_count() == 0) {
        engine_->drain_patient(patient_id);
        encode_patient_frame(tx, FrameType::kDrainDone, patient_id);
      } else {
        // Workers drain the patient; park until patient_pending hits 0
        // (the progress hook runs on every completion and shed).
        conn.deferred_patient = patient_id;
        conn.deferred = Connection::Deferred::kDrain;
        advance_deferred(conn);
      }
      return;
    }
    case FrameType::kExtractSlo: {
      std::uint32_t patient_id = 0;
      if (!decode_patient_frame(frame.payload, patient_id)) {
        send_error(conn, ErrorCode::kBadPayload, "malformed EXTRACT_SLO", true);
        return;
      }
      SloStatePayload slo;
      slo.patient_id = patient_id;
      if (auto state = engine_->extract_patient_slo(patient_id)) {
        slo.present = true;
        slo.state = std::move(*state);
      }
      encode_slo_state(tx, FrameType::kSloState, slo);
      return;
    }
    case FrameType::kAdoptSlo: {
      SloStatePayload slo;
      if (!decode_slo_state(frame.payload, slo)) {
        send_error(conn, ErrorCode::kBadPayload, "malformed ADOPT_SLO", true);
        return;
      }
      bool adopted = true;
      if (slo.present) adopted = engine_->adopt_patient_slo(slo.patient_id, slo.state);
      encode_adopt_ack(tx, adopted);
      return;
    }
    case FrameType::kSnapshotRequest: {
      std::uint64_t nonce = 0;
      if (!decode_snapshot_request(frame.payload, nonce)) {
        send_error(conn, ErrorCode::kBadPayload, "malformed SNAPSHOT_REQUEST", true);
        return;
      }
      // The CR advisory is pressure-gated: active only while the backlog
      // is deep enough that newly queued routine windows would miss their
      // deadline anyway.  A threshold <= 0 makes it unconditional — the
      // deterministic setting tests use.
      const double deadline_ms = cfg_.engine.slo.deadline_ms;
      const bool under_pressure =
          cfg_.hint_backlog_deadlines <= 0.0 ||
          (deadline_ms > 0.0 &&
           engine_->backlog_wait_ms() > cfg_.hint_backlog_deadlines * deadline_ms);
      const std::uint32_t advisory_cr_centi =
          cfg_.hint_cr_percent > 0.0 && under_pressure
              ? static_cast<std::uint32_t>(cfg_.hint_cr_percent * 100.0 + 0.5)
              : 0;
      // Answered from relaxed atomic loads, never the solve path: this is
      // also the liveness probe, which must stay prompt on a saturated
      // shard, or a loaded shard would look dead exactly when failing it
      // over hurts most.
      encode_snapshot(tx, nonce, host::engine_counters(*engine_), advisory_cr_centi);
      return;
    }
    case FrameType::kBye: {
      encode_bye_ack(tx);
      conn.close_after_flush = true;
      if (cfg_.stop_on_bye) stopping_.store(true, std::memory_order_release);
      return;
    }
    case FrameType::kHello: {
      send_error(conn, ErrorCode::kBadPayload, "duplicate HELLO", true);
      return;
    }
    default:
      // Includes the retired types 4-9 and 24-27.
      send_error(conn, ErrorCode::kUnknownFrameType, "unknown frame type", true);
      return;
  }
}

void ShardServer::submit_blocking(Connection& conn,
                                  std::vector<host::CompressedWindow>&& windows) {
  conn.deferred_acks.clear();
  conn.deferred_acks.reserve(windows.size());
  conn.deferred_windows = std::move(windows);
  conn.deferred_next = 0;
  conn.deferred = Connection::Deferred::kSubmit;
  // Usually the engine has room and this completes synchronously; only a
  // genuinely full engine leaves the verb parked.
  advance_deferred(conn);
}

void ShardServer::advance_deferred(Connection& conn) {
  switch (conn.deferred) {
    case Connection::Deferred::kNone:
      return;
    case Connection::Deferred::kSubmit:
      while (conn.deferred_next < conn.deferred_windows.size()) {
        auto& window = conn.deferred_windows[conn.deferred_next];
        auto ticket = engine_->try_submit_step(std::move(window), host::Solver::kCallerIfCheap);
        if (!ticket) {
          // Full.  Solving the windows held for this loop frees their
          // slots; a backlog of worker-bound windows wakes the loop through
          // the hook at its next slot release instead.
          if (solve_held() > 0) continue;
          return;
        }
        conn.deferred_acks.push_back({true, *ticket});
        ++conn.deferred_next;
      }
      acknowledge(conn, conn.deferred_acks);
      conn.deferred = Connection::Deferred::kNone;
      conn.deferred_windows.clear();
      return;
    case Connection::Deferred::kDrain:
      // Same quiescence condition as ReconstructionEngine::drain_patient:
      // nothing of this patient is submitted-but-unsolved (results may
      // still be parked in the completion list).
      if (engine_->patient_pending(conn.deferred_patient) != 0) return;
      encode_patient_frame(conn.tx, FrameType::kDrainDone, conn.deferred_patient);
      conn.deferred = Connection::Deferred::kNone;
      return;
  }
}

std::uint64_t ShardServer::stage_ready_results(std::uint32_t max_results, std::size_t frame_bytes) {
  // Capped by count AND by bytes: a deep completion list of large windows
  // must not assemble a frame past kMaxPayloadBytes.  The client just
  // polls again for the rest.
  constexpr std::size_t kBatchByteBudget = 4 * 1024 * 1024;
  batch_staging_.clear();
  std::uint64_t count = 0;
  while (count < max_results && frame_bytes + batch_staging_.size() < kBatchByteBudget) {
    auto result = engine_->poll();
    if (!result) break;
    encode_result_entry(batch_staging_, *result, cfg_.wire);
    if (cfg_.engine.payload_pool) {
      cfg_.engine.payload_pool->recycle(std::move(*result));
    }
    ++count;
  }
  return count;
}

void ShardServer::acknowledge(Connection& conn, std::span<const SubmitBatchAckEntry> acks) {
  solve_held();
  // A serial engine solves inside engine.poll(): its ACK carries nothing,
  // or every submit would solve the whole queue.  An entry is at most 11
  // bytes (flag and a 10-byte varint).
  const std::uint32_t max_results = engine_->thread_count() > 0 ? kMaxPollResults : 0;
  const std::uint64_t count = stage_ready_results(max_results, acks.size() * 11);
  encode_submit_batch_ack(conn.tx, acks, batch_staging_, count);
  ack_results_.fetch_add(count, std::memory_order_relaxed);
}

void ShardServer::answer_poll(Connection& conn) {
  // One POLL_MANY answers with exactly one RESULT_BATCH.
  const std::uint64_t count = stage_ready_results(conn.parked_poll, 0);
  conn.parked_poll = 0;
  encode_result_batch(conn.tx, batch_staging_, count);
  poll_answers_.fetch_add(1, std::memory_order_relaxed);
}

void ShardServer::send_error(Connection& conn, ErrorCode code, const std::string& detail,
                             bool close_after) {
  encode_error(conn.tx, ErrorPayload{code, detail});
  if (close_after) conn.close_after_flush = true;
}

void ShardServer::flush(Connection& conn) {
  while (conn.tx_sent < conn.tx.size()) {
    const ssize_t n = ::send(conn.fd.get(), conn.tx.data() + conn.tx_sent,
                             conn.tx.size() - conn.tx_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.tx_sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
    conn.close_after_flush = true;  // Peer gone; reap on the next pass.
    conn.tx.clear();
    conn.tx_sent = 0;
    return;
  }
  // Fully flushed: reclaim the buffer (keep capacity warm).
  conn.tx.clear();
  conn.tx_sent = 0;
}

}  // namespace wbsn::net
