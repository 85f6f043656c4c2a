// shard_serverd — one reconstruction shard as a standalone process.
//
// Wraps net::ShardServer in a tiny CLI so a fleet can be launched by an
// init system, a test harness, or a shell loop.  The daemon binds
// (default: an ephemeral port on 127.0.0.1), prints one machine-readable
// line `PORT <n>` on stdout once it is accepting connections — the
// handshake the multi-process tests and launch scripts key on — and then
// serves until a client sends BYE or the process receives SIGINT/SIGTERM.
//
// Usage: shard_serverd [--host A.B.C.D] [--port N] [--threads N]
//                      [--queue-capacity N] [--deadline-ms X]
//                      [--fixed-scale X] [--hint-cr X]
//                      [--hint-backlog-deadlines X]
// See docs/OPERATIONS.md for how these map onto EngineConfig.  A flag
// value that is not a number in range (parse_shard_serverd_args) prints
// the usage and exits 2.

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <memory>
#include <span>
#include <utility>

#include "net/shard_server.hpp"
#include "net/shard_serverd_args.hpp"

namespace {

// Async-signal-safe shutdown: the handler may only set a sig_atomic_t and
// write() one byte to a pre-created self-pipe (both on the POSIX
// async-signal-safe list).  The server's event loop polls the pipe's read
// end (ShardServerConfig::stop_fd) and performs the actual stop on its
// own thread.  Calling ShardServer::stop() from the handler — as an
// earlier revision did — dereferenced a non-atomic pointer and took the
// self-pipe write path through non-reentrant object state; a signal
// landing mid-run() could deadlock or corrupt the server.
volatile std::sig_atomic_t g_stop_requested = 0;
int g_stop_pipe_wr = -1;

void on_signal(int) {
  g_stop_requested = 1;
  if (g_stop_pipe_wr >= 0) {
    const unsigned char byte = 1;
    (void)!::write(g_stop_pipe_wr, &byte, 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::span<const char* const> args(argv, static_cast<std::size_t>(argc));
  auto parsed = wbsn::net::parse_shard_serverd_args(args.empty() ? args : args.subspan(1));
  if (!parsed) {
    std::fputs(
        "usage: shard_serverd [--host H] [--port N] [--threads N] [--queue-capacity N]\n"
        "                     [--deadline-ms X] [--fixed-scale X] [--hint-cr X]\n"
        "                     [--hint-backlog-deadlines X]\n",
        stderr);
    return 2;
  }
  wbsn::net::ShardServerConfig cfg = std::move(*parsed);
  cfg.engine.payload_pool = std::make_shared<wbsn::host::PayloadPool>();

  // The stop pipe must exist before any signal can fire.  Nonblocking
  // write end: a full pipe already means a wake is pending, and a handler
  // must never block.
  int stop_pipe[2] = {-1, -1};
  if (::pipe(stop_pipe) != 0) {
    std::perror("shard_serverd: pipe failed");
    return 1;
  }
  ::fcntl(stop_pipe[0], F_SETFL, O_NONBLOCK);
  ::fcntl(stop_pipe[1], F_SETFL, O_NONBLOCK);
  cfg.stop_fd = stop_pipe[0];
  g_stop_pipe_wr = stop_pipe[1];

  wbsn::net::ShardServer server(cfg);
  if (!server.start()) {
    std::perror("shard_serverd: start failed");
    return 1;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // The readiness handshake: parseable, single line, flushed before any
  // other output so a pipe reader never blocks on buffering.
  std::printf("PORT %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  server.run();
  g_stop_pipe_wr = -1;  // A late signal must not write a closed fd.
  ::close(stop_pipe[0]);
  ::close(stop_pipe[1]);
  return 0;
}
