// SocketLink against a scripted shard: a loopback peer that answers with
// frames from the committed encoders and chooses how they group into
// writes, which a real ShardServer does not do on demand.  Each schedule
// pins one rule of the client's books: a result the shard sent is
// delivered exactly once, whatever the connection does next; and a
// SNAPSHOT that does not echo its request's nonce is never taken for the
// answer.

#include "net/routing_client.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>

#include <chrono>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "net/wire_format.hpp"

namespace wbsn::net {
namespace {

using host::CompressedWindow;
using host::SubmitAck;
using host::WindowResult;

CompressedWindow make_window(std::uint32_t index) {
  CompressedWindow window;
  window.patient_id = 3;
  window.window_index = index;
  window.matrix_seed = 11;
  window.window_samples = 128;
  window.measurements.assign(64, 0.25 * index);
  return window;
}

/// The peer's side of one connection: blocking reads and writes of whole
/// frames, with a 2-s receive timeout so a schedule gone wrong fails
/// instead of hanging.
class ScriptedShard {
 public:
  ScriptedShard() { EXPECT_TRUE(listener_.listen("127.0.0.1", 0)); }

  ShardEndpoint endpoint() const { return {"127.0.0.1", listener_.port()}; }

  /// Accepts the link's connection (the next one, after a reconnect) and
  /// answers its HELLO.
  bool accept_and_negotiate() {
    pollfd pfd{listener_.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 2000) <= 0) return false;
    rx_.clear();
    consumed_ = 0;
    conn_ = listener_.accept();
    if (!conn_.valid()) return false;
    const int flags = ::fcntl(conn_.get(), F_GETFL);
    if (::fcntl(conn_.get(), F_SETFL, flags & ~O_NONBLOCK) != 0 ||
        !set_recv_timeout(conn_.get(), 2000)) {
      return false;
    }
    FrameView view;
    if (!read_frame(view) || view.type != FrameType::kHello) return false;
    std::vector<std::uint8_t> out;
    encode_hello_ack(out, kWireVersion);
    return write(out);
  }

  /// Reads one SUBMIT_BATCH and returns its windows.
  std::vector<CompressedWindow> read_submit_batch() {
    FrameView view;
    std::uint8_t flags = 0;
    std::vector<CompressedWindow> windows;
    EXPECT_TRUE(read_frame(view));
    EXPECT_EQ(view.type, FrameType::kSubmitBatch);
    EXPECT_TRUE(decode_submit_batch(view.payload, flags, windows, nullptr));
    return windows;
  }

  /// Reads one POLL_MANY.
  void read_poll_many() {
    FrameView view;
    std::uint32_t max_results = 0;
    EXPECT_TRUE(read_frame(view));
    EXPECT_EQ(view.type, FrameType::kPollMany);
    EXPECT_TRUE(decode_poll_many(view.payload, max_results));
  }

  /// Reads one SNAPSHOT_REQUEST and returns its nonce.
  std::uint64_t read_snapshot_request() {
    FrameView view;
    std::uint64_t nonce = 0;
    EXPECT_TRUE(read_frame(view));
    EXPECT_EQ(view.type, FrameType::kSnapshotRequest);
    EXPECT_TRUE(decode_snapshot_request(view.payload, nonce));
    return nonce;
  }

  /// One send of `bytes`, however many frames they hold.
  bool write(const std::vector<std::uint8_t>& bytes) {
    return send_all(conn_.get(), bytes.data(), bytes.size());
  }

  /// Closes the shard's end, as a crash does.
  void close() { conn_.reset(); }

  /// True once the link has closed its end.
  bool closed_by_link() {
    std::uint8_t chunk[256];
    for (;;) {
      const long n = recv_some(conn_.get(), chunk, sizeof(chunk));
      if (n <= 0) return n == 0;
    }
  }

 private:
  bool read_frame(FrameView& view) {
    rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
    for (;;) {
      const auto status = peek_frame(rx_, view);
      if (status == FrameStatus::kOk) {
        consumed_ = view.frame_bytes;
        return true;
      }
      if (status != FrameStatus::kNeedMore) return false;
      std::uint8_t chunk[4096];
      const long n = recv_some(conn_.get(), chunk, sizeof(chunk));
      if (n <= 0) return false;
      rx_.insert(rx_.end(), chunk, chunk + n);
    }
  }

  TcpListener listener_;
  Fd conn_;
  std::vector<std::uint8_t> rx_;
  std::size_t consumed_ = 0;  ///< Bytes of the last frame returned.
};

/// Appends the result body of `window`, solved under `ticket`.
void encode_result_of(std::vector<std::uint8_t>& body, const CompressedWindow& window,
                      std::uint64_t ticket) {
  WindowResult result;
  result.patient_id = window.patient_id;
  result.window_index = window.window_index;
  result.ticket = ticket;
  result.signal.assign(window.window_samples, 0.5);
  encode_result_entry(body, result, WireEncodeOptions{});
}

/// Appends a SUBMIT_BATCH_ACK accepting `window` under `ticket` and
/// carrying its result.
void encode_ack_with_result(std::vector<std::uint8_t>& out, const CompressedWindow& window,
                            std::uint64_t ticket) {
  std::vector<std::uint8_t> body;
  encode_result_of(body, window, ticket);
  const SubmitBatchAckEntry entry{true, ticket};
  encode_submit_batch_ack(out, {&entry, 1}, body, 1);
}

/// Appends a SUBMIT_BATCH_ACK accepting one window under `ticket`, with
/// no result: the window is still solving.
void encode_bare_ack(std::vector<std::uint8_t>& out, std::uint64_t ticket) {
  const SubmitBatchAckEntry entry{true, ticket};
  encode_submit_batch_ack(out, {&entry, 1});
}

/// Appends a RESULT_BATCH carrying the result of `window`, solved under
/// `ticket`.
void encode_result_batch_of(std::vector<std::uint8_t>& out, const CompressedWindow& window,
                            std::uint64_t ticket) {
  std::vector<std::uint8_t> body;
  encode_result_of(body, window, ticket);
  encode_result_batch(out, body, 1);
}

/// A link that seals every window into its own frame and acknowledges
/// each frame before the next.
RoutingClientConfig lockstep_config() {
  RoutingClientConfig cfg;
  cfg.io_timeout_ms = 2000;
  cfg.reconnect_attempts = 0;
  cfg.pipeline_depth = 0;
  cfg.submit_batch_windows = 1;
  return cfg;
}

/// The window indices of `results`, in delivery order.
std::vector<std::uint32_t> indices(host::RingDeque<WindowResult>& results) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < results.size(); ++i) out.push_back(results[i].window_index);
  return out;
}

/// The statuses of `acks`, in submission order.
std::vector<SubmitAck::Status> statuses(const std::vector<SubmitAck>& acks) {
  std::vector<SubmitAck::Status> out;
  for (const auto& ack : acks) out.push_back(ack.status);
  return out;
}

constexpr auto kAccepted = SubmitAck::Status::kAccepted;
constexpr auto kLost = SubmitAck::Status::kLost;

TEST(ScriptedShard, AckReadAlongsideAnotherSurvivesAFailedSend) {
  // Two frames on the wire (pipeline depth 1); the shard answers both in
  // one write, so the second ACK sits complete in the link's receive
  // buffer when the third frame's send fails.  That ACK's window was
  // admitted and its result retrieved on the shard, so the link delivers
  // both; only the window whose send failed is lost.
  ScriptedShard shard;
  const std::vector<CompressedWindow> windows{make_window(0), make_window(1), make_window(2)};
  std::thread peer([&] {
    ASSERT_TRUE(shard.accept_and_negotiate());
    std::vector<std::uint8_t> acks;
    for (std::uint64_t ticket = 0; ticket < 2; ++ticket) {
      const auto batch = shard.read_submit_batch();
      ASSERT_EQ(batch.size(), 1u);
      encode_ack_with_result(acks, batch.front(), ticket);
    }
    ASSERT_TRUE(shard.write(acks));
    EXPECT_TRUE(shard.closed_by_link());
  });

  RoutingClientConfig cfg;
  cfg.io_timeout_ms = 2000;
  cfg.reconnect_attempts = 0;
  cfg.pipeline_depth = 1;
  cfg.submit_batch_windows = 1;
  cfg.fault_inject = [](std::size_t, std::uint64_t frame) { return frame == 2; };
  std::vector<SubmitAck> acks;
  host::RingDeque<WindowResult> results;
  {
    SocketLink link(shard.endpoint(), 0, cfg);
    for (auto window : windows) EXPECT_TRUE(link.submit(window, /*blocking=*/true));
    link.take_acks(acks);
    link.take_results(results);
  }  // The link's end closes here, which ends the peer.
  peer.join();

  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[0].status, SubmitAck::Status::kAccepted);
  EXPECT_EQ(acks[1].status, SubmitAck::Status::kAccepted) << "its ACK was already received";
  EXPECT_EQ(acks[1].local_ticket, 1u);
  EXPECT_EQ(acks[2].status, SubmitAck::Status::kLost);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].window_index, 0u);
  EXPECT_EQ(results[1].window_index, 1u);
}

TEST(ScriptedShard, AckSplitAcrossTwoWritesThenACloseIsDeliveredOnce) {
  // The ACK of the first window reaches the link in two writes, so one
  // read holds half a frame; then the shard dies.  The first window is
  // accepted with its result, delivered once; the second, sent into the
  // dead connection, is lost and never retried.
  ScriptedShard shard;
  const std::vector<CompressedWindow> windows{make_window(0), make_window(1)};
  std::thread peer([&] {
    ASSERT_TRUE(shard.accept_and_negotiate());
    const auto batch = shard.read_submit_batch();
    ASSERT_EQ(batch.size(), 1u);
    std::vector<std::uint8_t> ack;
    encode_ack_with_result(ack, batch.front(), 0);
    const auto half = static_cast<std::ptrdiff_t>(ack.size() / 2);
    ASSERT_TRUE(shard.write({ack.begin(), ack.begin() + half}));
    // Long enough for the link to read the first half on its own.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(shard.write({ack.begin() + half, ack.end()}));
    shard.close();
  });

  std::vector<SubmitAck> acks;
  host::RingDeque<WindowResult> results;
  const auto cfg = lockstep_config();
  SocketLink link(shard.endpoint(), 0, cfg);
  CompressedWindow first = windows[0];
  EXPECT_TRUE(link.submit(first, /*blocking=*/true));
  peer.join();
  CompressedWindow second = windows[1];
  (void)link.submit(second, /*blocking=*/true);
  link.take_acks(acks);
  link.take_results(results);

  EXPECT_EQ(statuses(acks), (std::vector{kAccepted, kLost}));
  EXPECT_EQ(acks[0].local_ticket, 0u);
  EXPECT_EQ(indices(results), std::vector<std::uint32_t>{0});
}

TEST(ScriptedShard, ResultBatchAndAckInOneWriteBeforeAReconnectAreDeliveredOnce) {
  // A POLL_MANY is armed when the second window goes out, so the shard
  // answers that poll (with the first window's result) and the second
  // window's ACK (with its own) in one write, then dies.  The third
  // window goes into the dead connection and is lost; the fourth opens a
  // new one.  Its result comes by a POLL_MANY armed on the new
  // connection: none is owed there by the old one.
  ScriptedShard shard;
  std::vector<CompressedWindow> windows;
  for (std::uint32_t i = 0; i < 4; ++i) windows.push_back(make_window(i));
  std::thread peer([&] {
    ASSERT_TRUE(shard.accept_and_negotiate());
    ASSERT_EQ(shard.read_submit_batch().size(), 1u);
    std::vector<std::uint8_t> out;
    encode_bare_ack(out, 0);
    ASSERT_TRUE(shard.write(out));
    shard.read_poll_many();
    ASSERT_EQ(shard.read_submit_batch().size(), 1u);
    shard.read_poll_many();  // Re-armed behind the batch.
    out.clear();
    encode_result_batch_of(out, windows[0], 0);
    encode_ack_with_result(out, windows[1], 1);
    ASSERT_TRUE(shard.write(out));
    shard.close();

    ASSERT_TRUE(shard.accept_and_negotiate());
    ASSERT_EQ(shard.read_submit_batch().size(), 1u);
    out.clear();
    encode_bare_ack(out, 0);
    ASSERT_TRUE(shard.write(out));
    shard.read_poll_many();
    out.clear();
    encode_result_batch_of(out, windows[3], 0);
    ASSERT_TRUE(shard.write(out));
    EXPECT_TRUE(shard.closed_by_link());
  });

  auto cfg = lockstep_config();
  cfg.reconnect_attempts = 1;
  cfg.reconnect_backoff_ms = 1;
  std::vector<SubmitAck> acks;
  host::RingDeque<WindowResult> results;
  {
    SocketLink link(shard.endpoint(), 0, cfg);
    CompressedWindow w0 = windows[0];
    EXPECT_TRUE(link.submit(w0, /*blocking=*/true));
    EXPECT_TRUE(link.poll_many(results, /*owed=*/1));  // Arms a POLL_MANY.
    EXPECT_TRUE(results.empty());
    CompressedWindow w1 = windows[1];
    EXPECT_TRUE(link.submit(w1, /*blocking=*/true));
    CompressedWindow w2 = windows[2];
    (void)link.submit(w2, /*blocking=*/true);
    CompressedWindow w3 = windows[3];
    EXPECT_TRUE(link.submit(w3, /*blocking=*/true));  // Reconnects first.
    // The shard still holds the fourth window: poll until its answer.
    for (int i = 0; i < 200 && results.size() < 3; ++i) {
      EXPECT_TRUE(link.poll_many(results, /*owed=*/3 - results.size()));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    link.take_acks(acks);
  }  // The link's end closes here, which ends the peer.
  peer.join();

  EXPECT_EQ(statuses(acks), (std::vector{kAccepted, kAccepted, kLost, kAccepted}));
  EXPECT_EQ(indices(results), (std::vector<std::uint32_t>{0, 1, 3}));
}

TEST(ScriptedShard, SnapshotSweepDeliversAckAndPollResultsOnce) {
  // The first window's result rides its ACK; the second's comes in the
  // answer to the POLL_MANY the sweep sends with its SNAPSHOT_REQUEST.
  // The sweep hands over both, once; a later snapshot and poll add
  // nothing.  The link keeps the advisory of the last SNAPSHOT.
  ScriptedShard shard;
  const std::vector<CompressedWindow> windows{make_window(0), make_window(1)};
  std::thread peer([&] {
    ASSERT_TRUE(shard.accept_and_negotiate());
    ASSERT_EQ(shard.read_submit_batch().size(), 1u);
    std::vector<std::uint8_t> out;
    encode_ack_with_result(out, windows[0], 0);
    ASSERT_TRUE(shard.write(out));
    ASSERT_EQ(shard.read_submit_batch().size(), 1u);
    out.clear();
    encode_bare_ack(out, 1);
    ASSERT_TRUE(shard.write(out));

    SnapshotPayload counters;
    counters.submitted = 2;
    counters.completed = 2;
    counters.retrieved = 2;
    shard.read_poll_many();
    std::uint64_t nonce = shard.read_snapshot_request();
    out.clear();
    encode_result_batch_of(out, windows[1], 1);
    encode_snapshot(out, nonce, counters, /*advisory_cr_centi=*/7000);
    ASSERT_TRUE(shard.write(out));

    nonce = shard.read_snapshot_request();
    out.clear();
    encode_snapshot(out, nonce, counters, /*advisory_cr_centi=*/0);
    ASSERT_TRUE(shard.write(out));
    EXPECT_TRUE(shard.closed_by_link());
  });

  host::RingDeque<WindowResult> sweep, later;
  host::ShardCounters counters;
  const auto cfg = lockstep_config();
  {
    SocketLink link(shard.endpoint(), 0, cfg);
    for (auto window : windows) EXPECT_TRUE(link.submit(window, /*blocking=*/true));
    ASSERT_TRUE(link.snapshot(counters, &sweep));
    EXPECT_EQ(counters.submitted, 2u);
    EXPECT_EQ(link.advisory_cr_centi(), 7000u);
    ASSERT_TRUE(link.snapshot(counters, nullptr));
    EXPECT_EQ(link.advisory_cr_centi(), 0u);
    EXPECT_TRUE(link.poll_many(later, /*owed=*/0));
    link.take_results(later);
  }
  peer.join();

  EXPECT_EQ(indices(sweep), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_TRUE(later.empty()) << "each result is delivered once";
}

TEST(ScriptedShard, SnapshotWithAStaleNonceResetsTheLinkAndFailsTheProbe) {
  // An answer echoing another request's nonce is not the answer to this
  // probe: the stream is desynchronized.  The link drops the connection,
  // and the probe reports the shard dead.
  ScriptedShard shard;
  std::thread peer([&] {
    ASSERT_TRUE(shard.accept_and_negotiate());
    const std::uint64_t nonce = shard.read_snapshot_request();
    std::vector<std::uint8_t> out;
    encode_snapshot(out, nonce - 1, SnapshotPayload{}, 0);
    ASSERT_TRUE(shard.write(out));
    EXPECT_TRUE(shard.closed_by_link()) << "the link must reset the connection";
  });

  auto cfg = lockstep_config();
  cfg.health_probe_timeout_ms = 1000;
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({shard.endpoint()}));
  EXPECT_FALSE(client.probe_health(0));
  peer.join();
  client.shutdown(/*send_bye=*/false);
}

}  // namespace
}  // namespace wbsn::net
