// Thin POSIX TCP wrappers for the fabric's process split.
//
// Deliberately minimal: the repo needs a loopback/LAN transport for
// ShardServer and RoutingClient, not a networking framework.  RAII fds,
// IPv4 only, no TLS (the paper's WBSN backhaul is a trusted hospital
// network; putting the link behind stunnel/wireguard is an ops decision,
// not a protocol one — see docs/WIRE_FORMAT.md §Security).  Everything
// returns bool/-1 style errors with errno left intact; nothing throws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace wbsn::net {

/// RAII file descriptor.  Movable, non-copyable; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

/// Listening IPv4 TCP socket.  Binding port 0 asks the kernel for an
/// ephemeral port, readable afterwards via port() — how the multi-process
/// tests avoid fixed-port collisions.
class TcpListener {
 public:
  TcpListener() = default;

  /// Bind + listen on host:port.  Returns false (errno set) on failure.
  bool listen(const std::string& host, std::uint16_t port, int backlog = 64);

  /// The locally bound port (the kernel's pick when listen()ed with 0).
  std::uint16_t port() const { return port_; }

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }

  /// Accepts one pending connection; invalid Fd when none is ready (the
  /// listener is nonblocking) or on error.
  Fd accept();

  void close() { fd_.reset(); }

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
};

/// Blocking connect to host:port with a millisecond timeout.  Returns an
/// invalid Fd on failure.  The returned socket is blocking, TCP_NODELAY,
/// with send/receive timeouts of `io_timeout_ms` (0 = none) — the client
/// side's stall guard.
Fd tcp_connect(const std::string& host, std::uint16_t port, int connect_timeout_ms,
               int io_timeout_ms);

/// Puts an fd in nonblocking mode.  Server-loop side.
bool set_nonblocking(int fd);

/// Adjusts SO_RCVTIMEO on a connected blocking socket (<= 0 clears the
/// timeout).  Lets a caller tighten the deadline for one exchange — the
/// health probe's "dead or deadlined" check — and restore it after.
bool set_recv_timeout(int fd, int timeout_ms);

/// send() the whole buffer on a blocking socket.  False on error/timeout.
bool send_all(int fd, const void* data, std::size_t size);

/// One segment of a scatter-gather send.
struct ConstBuf {
  const void* data = nullptr;
  std::size_t size = 0;
};

/// Scatter-gather send_all: sends the concatenation of `bufs` on a
/// blocking socket without assembling it contiguously (sendmsg under the
/// hood, so a sealed batch frame's prefix, staged bodies, and CRC trailer
/// go out in one syscall).  False on error/timeout.
bool send_all_vec(int fd, const ConstBuf* bufs, std::size_t count);

/// recv() once into `out` (up to `cap` bytes).  Returns bytes read, 0 on
/// orderly peer close, -1 on error (including timeout; EINTR retried).
/// With `wait` false it never blocks: -1 with errno EAGAIN/EWOULDBLOCK
/// means nothing is buffered yet.
long recv_some(int fd, void* out, std::size_t cap, bool wait = true);

}  // namespace wbsn::net
