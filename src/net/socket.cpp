#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace wbsn::net {
namespace {

bool parse_addr(const std::string& host, std::uint16_t port, sockaddr_in& out) {
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  if (host.empty() || host == "0.0.0.0") {
    out.sin_addr.s_addr = htonl(INADDR_ANY);
    return true;
  }
  if (host == "localhost") {
    return inet_pton(AF_INET, "127.0.0.1", &out.sin_addr) == 1;
  }
  return inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

void set_nodelay(int fd) {
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool TcpListener::listen(const std::string& host, std::uint16_t port, int backlog) {
  fd_.reset();
  port_ = 0;
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return false;
  int one = 1;
  (void)setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  if (!parse_addr(host, port, addr)) return false;
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) return false;
  if (::listen(fd.get(), backlog) != 0) return false;
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) return false;
  if (!set_nonblocking(fd.get())) return false;
  port_ = ntohs(bound.sin_port);
  fd_ = std::move(fd);
  return true;
}

Fd TcpListener::accept() {
  if (!fd_.valid()) return Fd{};
  int conn = ::accept(fd_.get(), nullptr, nullptr);
  if (conn < 0) return Fd{};
  Fd fd(conn);
  set_nodelay(fd.get());
  if (!set_nonblocking(fd.get())) return Fd{};
  return fd;
}

Fd tcp_connect(const std::string& host, std::uint16_t port, int connect_timeout_ms,
               int io_timeout_ms) {
  sockaddr_in addr{};
  if (!parse_addr(host.empty() ? "127.0.0.1" : host, port, addr)) return Fd{};
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Fd{};
  // Nonblocking connect + poll gives the timeout; the socket goes back to
  // blocking for the simple request/response client.
  if (!set_nonblocking(fd.get())) return Fd{};
  int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) return Fd{};
    pollfd pfd{fd.get(), POLLOUT, 0};
    rc = ::poll(&pfd, 1, connect_timeout_ms);
    if (rc <= 0) return Fd{};
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) return Fd{};
  }
  int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) != 0) return Fd{};
  set_nodelay(fd.get());
  if (io_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = io_timeout_ms / 1000;
    tv.tv_usec = (io_timeout_ms % 1000) * 1000;
    (void)setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    (void)setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  return fd;
}

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool set_recv_timeout(int fd, int timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
  }
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

bool send_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool send_all_vec(int fd, const ConstBuf* bufs, std::size_t count) {
  // iovec caps at IOV_MAX (>= 16 everywhere); callers pass a handful.
  iovec iov[16];
  std::size_t n_iov = 0;
  for (std::size_t i = 0; i < count && n_iov < 16; ++i) {
    if (bufs[i].size == 0) continue;
    iov[n_iov].iov_base = const_cast<void*>(bufs[i].data);
    iov[n_iov].iov_len = bufs[i].size;
    ++n_iov;
  }
  if (count > 16) return false;
  std::size_t first = 0;
  while (first < n_iov) {
    msghdr msg{};
    msg.msg_iov = iov + first;
    msg.msg_iovlen = n_iov - first;
    const ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (sent == 0) return false;
    // Advance the iov array past what the kernel took (partial sends are
    // legal even on blocking sockets when a timeout interrupts mid-write).
    auto left = static_cast<std::size_t>(sent);
    while (first < n_iov && left >= iov[first].iov_len) {
      left -= iov[first].iov_len;
      ++first;
    }
    if (first < n_iov && left > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + left;
      iov[first].iov_len -= left;
    }
  }
  return true;
}

long recv_some(int fd, void* out, std::size_t cap, bool wait) {
  for (;;) {
    const ssize_t n = ::recv(fd, out, cap, wait ? 0 : MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    return static_cast<long>(n);
  }
}

}  // namespace wbsn::net
