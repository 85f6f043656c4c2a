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
//                      [--queue-capacity N] [--batch-windows N]
//                      [--deadline-ms X] [--shedding] [--fixed-scale X]
//                      [--hint-cr X] [--hint-backlog-deadlines X]
// See docs/OPERATIONS.md for how these map onto EngineConfig.

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/shard_server.hpp"

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

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port N] [--threads N] [--queue-capacity N]\n"
               "          [--batch-windows N] [--deadline-ms X] [--shedding]\n"
               "          [--fixed-scale X] [--hint-cr X] [--hint-backlog-deadlines X]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  wbsn::net::ShardServerConfig cfg;
  cfg.stop_on_bye = true;
  cfg.engine.threads = 2;
  cfg.engine.payload_pool = std::make_shared<wbsn::host::PayloadPool>();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      return argv[++i];
    };
    if (arg == "--host") {
      cfg.host = next();
    } else if (arg == "--port") {
      cfg.port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--threads") {
      cfg.engine.threads = std::atoi(next());
    } else if (arg == "--queue-capacity") {
      cfg.engine.queue_capacity = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--batch-windows") {
      cfg.engine.batch_windows = std::atoi(next());
    } else if (arg == "--deadline-ms") {
      cfg.engine.slo.deadline_ms = std::atof(next());
    } else if (arg == "--shedding") {
      cfg.engine.deadline_shedding = true;
    } else if (arg == "--fixed-scale") {
      cfg.wire.fixed_scale = std::atof(next());
    } else if (arg == "--hint-cr") {
      // CR advisory (percent) answered to CR_HINT sweeps under pressure.
      cfg.hint_cr_percent = std::atof(next());
    } else if (arg == "--hint-backlog-deadlines") {
      cfg.hint_backlog_deadlines = std::atof(next());
    } else {
      usage_and_exit(argv[0]);
    }
  }

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
