// SocketLink against a scripted shard: a loopback peer that answers with
// frames from the committed encoders and chooses how they group into
// writes, which a real ShardServer does not do on demand.  Each schedule
// pins one rule of the client's books: a result the shard sent is
// delivered exactly once, whatever the connection does next.

#include "net/routing_client.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>

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

  /// Accepts the link's connection and answers its HELLO.
  bool accept_and_negotiate() {
    pollfd pfd{listener_.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 2000) <= 0) return false;
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

  /// One send of `bytes`, however many frames they hold.
  bool write(const std::vector<std::uint8_t>& bytes) {
    return send_all(conn_.get(), bytes.data(), bytes.size());
  }

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

/// Appends a SUBMIT_BATCH_ACK accepting `window` under `ticket` and
/// carrying its result.
void encode_ack_with_result(std::vector<std::uint8_t>& out, const CompressedWindow& window,
                            std::uint64_t ticket) {
  WindowResult result;
  result.patient_id = window.patient_id;
  result.window_index = window.window_index;
  result.ticket = ticket;
  result.signal.assign(window.window_samples, 0.5);
  std::vector<std::uint8_t> body;
  encode_result_entry(body, result, WireEncodeOptions{});
  const SubmitBatchAckEntry entry{true, ticket};
  encode_submit_batch_ack(out, {&entry, 1}, body, 1);
}

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

}  // namespace
}  // namespace wbsn::net
