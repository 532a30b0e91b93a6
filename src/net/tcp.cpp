// The stream-socket transports: TCP and loopback share one fd-backed Conn
// and Listener, so both have one recv/send/poll/close implementation and
// every connection has a native_handle() a server loop's epoll set can watch.
//
//  * TCP: "host:port"; listening on port 0 picks an ephemeral port and
//    address() reports the real one (how tests avoid hard-coding ports).
//  * Loopback: AF_UNIX stream sockets in the Linux abstract namespace,
//    named "\0aesip-lo/<pid>/<instance>/<name>", so neither two transports
//    in one process nor parallel test processes see each other's names.
//    The kernel socket buffer is the backpressure; max_chunk caps each
//    read_some/write_some to force short reads and writes.
#include "net/socket.hpp"
#include "net/transport.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <thread>

#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace aesip::net {

using detail::throw_errno;

namespace {

/// Sleep until `fd` has `events` pending (true) or `timeout` elapses.
bool poll_fd(int fd, short events, std::chrono::milliseconds timeout) {
  pollfd p{fd, events, 0};
  return ::poll(&p, 1, static_cast<int>(timeout.count())) > 0;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

class StreamConn final : public Conn {
 public:
  StreamConn(int fd, std::string peer, std::size_t max_chunk)
      : fd_(fd), max_chunk_(max_chunk), peer_(std::move(peer)) {}

  ~StreamConn() override { close(); }

  IoResult read_some(std::span<std::uint8_t> buf) override {
    if (fd_ < 0) return {0, IoStatus::kEof};
    const ssize_t n = ::recv(fd_, buf.data(), std::min(buf.size(), max_chunk_), 0);
    if (n > 0) return {static_cast<std::size_t>(n), IoStatus::kOk};
    if (n == 0) return {0, IoStatus::kEof};
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return {0, IoStatus::kWouldBlock};
    return {0, IoStatus::kError};
  }

  IoResult write_some(std::span<const std::uint8_t> buf) override {
    if (fd_ < 0) return {0, IoStatus::kError};
    const ssize_t n =
        ::send(fd_, buf.data(), std::min(buf.size(), max_chunk_), MSG_NOSIGNAL);
    if (n >= 0) return {static_cast<std::size_t>(n), IoStatus::kOk};
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return {0, IoStatus::kWouldBlock};
    return {0, IoStatus::kError};
  }

  // A closed conn counts as ready (EOF) either way.
  bool wait_readable(std::chrono::milliseconds timeout) override {
    return fd_ < 0 || poll_fd(fd_, POLLIN, timeout);
  }
  bool wait_writable(std::chrono::milliseconds timeout) override {
    return fd_ < 0 || poll_fd(fd_, POLLOUT, timeout);
  }

  void close() override {
    if (fd_ < 0) return;
    ::close(fd_);
    fd_ = -1;
  }

  std::string peer() const override { return peer_; }

  int native_handle() const noexcept override { return fd_; }

 private:
  int fd_;
  std::size_t max_chunk_;
  std::string peer_;
};

class StreamListener final : public Listener {
 public:
  StreamListener(int fd, std::string address, std::size_t max_chunk)
      : fd_(fd), max_chunk_(max_chunk), address_(std::move(address)) {}

  ~StreamListener() override { close(); }

  std::unique_ptr<Conn> accept() override {
    if (fd_ < 0) return nullptr;
    sockaddr_storage peer{};
    socklen_t len = sizeof peer;
    const int cfd = ::accept4(fd_, reinterpret_cast<sockaddr*>(&peer), &len,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) return nullptr;  // EAGAIN and friends: nothing pending
    if (peer.ss_family != AF_INET)
      return std::make_unique<StreamConn>(cfd, "loopback-client", max_chunk_);
    set_nodelay(cfd);
    return std::make_unique<StreamConn>(
        cfd, detail::addr_to_string(reinterpret_cast<const sockaddr_in&>(peer)), max_chunk_);
  }

  int native_handle() const noexcept override { return fd_; }

  std::string address() const override { return address_; }

  void close() override {
    if (fd_ < 0) return;
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
  std::size_t max_chunk_;
  std::string address_;
};

/// socket + bind + listen, non-blocking; closes the socket and throws on
/// failure (EADDRINUSE for a name or port already taken).
int open_listener(const char* proto, const sockaddr* sa, socklen_t len,
                  const std::string& address) {
  const int fd = ::socket(sa->sa_family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno(proto, "socket");
  const int one = 1;
  if (sa->sa_family == AF_INET) ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, sa, len) < 0 || ::listen(fd, SOMAXCONN) < 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno(proto, "listen " + address);
  }
  return fd;
}

/// Blocking connect (local handshakes are instant; failures surface as the
/// exception the Client's retry loop expects), then non-blocking for the
/// I/O contract.
int open_conn(const char* proto, const sockaddr* sa, socklen_t len, const std::string& address) {
  const int fd = ::socket(sa->sa_family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno(proto, "socket");
  if (::connect(fd, sa, len) < 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno(proto, "connect " + address);
  }
  detail::set_nonblocking(proto, fd);
  if (sa->sa_family == AF_INET) set_nodelay(fd);
  return fd;
}

constexpr std::size_t kNoChunkCap = std::numeric_limits<std::size_t>::max();

/// The abstract-namespace address of loopback name `name`: `prefix` (which
/// starts with the NUL byte) + name, no terminator.
socklen_t loopback_addr(const std::string& prefix, const std::string& name, sockaddr_un& sa) {
  const std::string path = prefix + name;
  sa = {};
  sa.sun_family = AF_UNIX;
  if (path.size() > sizeof sa.sun_path)
    throw std::runtime_error("loopback: name too long: '" + name + "'");
  std::copy(path.begin(), path.end(), sa.sun_path);
  return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size());
}

class TcpTransport final : public Transport {
 public:
  std::unique_ptr<Listener> listen(const std::string& address) override {
    const sockaddr_in want = detail::parse_addr("tcp", address, /*for_listen=*/true);
    const int fd =
        open_listener("tcp", reinterpret_cast<const sockaddr*>(&want), sizeof want, address);
    sockaddr_in got{};
    socklen_t len = sizeof got;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len);
    if (got.sin_addr.s_addr == htonl(INADDR_ANY)) got.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return std::make_unique<StreamListener>(fd, detail::addr_to_string(got), kNoChunkCap);
  }

  std::unique_ptr<Conn> connect(const std::string& address) override {
    const sockaddr_in sa = detail::parse_addr("tcp", address, /*for_listen=*/false);
    const int fd = open_conn("tcp", reinterpret_cast<const sockaddr*>(&sa), sizeof sa, address);
    return std::make_unique<StreamConn>(fd, address, kNoChunkCap);
  }

  const char* name() const noexcept override { return "tcp"; }
};

}  // namespace

void Listener::wait(std::chrono::milliseconds timeout) {
  const int fd = native_handle();
  if (fd >= 0)
    poll_fd(fd, POLLIN, timeout);
  else
    std::this_thread::sleep_for(timeout);
}

std::unique_ptr<Transport> make_tcp_transport() { return std::make_unique<TcpTransport>(); }

LoopbackTransport::LoopbackTransport(std::size_t max_chunk)
    : max_chunk_(max_chunk ? max_chunk : 1) {
  static std::atomic<std::uint64_t> instances{0};
  prefix_ = std::string(1, '\0') + "aesip-lo/" + std::to_string(::getpid()) + "/" +
            std::to_string(instances.fetch_add(1, std::memory_order_relaxed)) + "/";
}

std::unique_ptr<Listener> LoopbackTransport::listen(const std::string& address) {
  sockaddr_un sa;
  const socklen_t len = loopback_addr(prefix_, address, sa);
  const int fd = open_listener("loopback", reinterpret_cast<const sockaddr*>(&sa), len, address);
  return std::make_unique<StreamListener>(fd, address, max_chunk_);
}

std::unique_ptr<Conn> LoopbackTransport::connect(const std::string& address) {
  sockaddr_un sa;
  const socklen_t len = loopback_addr(prefix_, address, sa);
  const int fd = open_conn("loopback", reinterpret_cast<const sockaddr*>(&sa), len, address);
  return std::make_unique<StreamConn>(fd, address, max_chunk_);
}

}  // namespace aesip::net
