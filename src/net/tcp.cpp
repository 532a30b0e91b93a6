// TcpTransport: the Conn/Listener/Transport contract over non-blocking
// POSIX sockets. Addresses are "host:port"; listening on port 0 picks an
// ephemeral port and address() reports the real one (how tests avoid
// hard-coding ports). Waiting is poll(2) on one fd: a Conn polls its own,
// a Listener its accept fd. The server's loops watch many fds at once
// through a ReadinessSet instead.
#include "net/transport.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace aesip::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("tcp: " + what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

/// "host:port" -> sockaddr_in. Host may be empty ("listen on any") or a
/// dotted quad; name resolution is out of scope for this layer.
sockaddr_in parse_addr(const std::string& address, bool for_listen) {
  const auto colon = address.rfind(':');
  if (colon == std::string::npos)
    throw std::runtime_error("tcp: address must be host:port, got '" + address + "'");
  const std::string host = address.substr(0, colon);
  const int port = std::stoi(address.substr(colon + 1));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  if (host.empty() || host == "*") {
    sa.sin_addr.s_addr = for_listen ? htonl(INADDR_ANY) : htonl(INADDR_LOOPBACK);
  } else if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    throw std::runtime_error("tcp: cannot parse host '" + host + "' (IPv4 dotted quad)");
  }
  return sa;
}

std::string addr_to_string(const sockaddr_in& sa) {
  char host[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &sa.sin_addr, host, sizeof host);
  return std::string(host) + ":" + std::to_string(ntohs(sa.sin_port));
}

class TcpConn final : public Conn {
 public:
  TcpConn(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {}

  ~TcpConn() override { close(); }

  IoResult read_some(std::span<std::uint8_t> buf) override {
    if (fd_ < 0) return {0, IoStatus::kEof};
    const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
    if (n > 0) return {static_cast<std::size_t>(n), IoStatus::kOk};
    if (n == 0) return {0, IoStatus::kEof};
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return {0, IoStatus::kWouldBlock};
    return {0, IoStatus::kError};
  }

  IoResult write_some(std::span<const std::uint8_t> buf) override {
    if (fd_ < 0) return {0, IoStatus::kError};
    const ssize_t n = ::send(fd_, buf.data(), buf.size(), MSG_NOSIGNAL);
    if (n >= 0) return {static_cast<std::size_t>(n), IoStatus::kOk};
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return {0, IoStatus::kWouldBlock};
    return {0, IoStatus::kError};
  }

  bool wait_readable(std::chrono::milliseconds timeout) override {
    return poll_one(POLLIN, timeout);
  }
  bool wait_writable(std::chrono::milliseconds timeout) override {
    return poll_one(POLLOUT, timeout);
  }

  void close() override {
    if (fd_ < 0) return;
    ::close(fd_);
    fd_ = -1;
  }

  std::string peer() const override { return peer_; }

  int native_handle() const noexcept override { return fd_; }

 private:
  bool poll_one(short events, std::chrono::milliseconds timeout) {
    if (fd_ < 0) return true;  // closed counts as "readable" (EOF) either way
    pollfd p{fd_, events, 0};
    const int r = ::poll(&p, 1, static_cast<int>(timeout.count()));
    return r > 0;
  }

  int fd_;
  std::string peer_;
};

class TcpListener final : public Listener {
 public:
  explicit TcpListener(const std::string& address) {
    const sockaddr_in want = parse_addr(address, /*for_listen=*/true);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&want), sizeof want) < 0) {
      ::close(fd_);
      throw_errno("bind " + address);
    }
    if (::listen(fd_, 64) < 0) {
      ::close(fd_);
      throw_errno("listen " + address);
    }
    set_nonblocking(fd_);
    sockaddr_in got{};
    socklen_t len = sizeof got;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&got), &len);
    if (got.sin_addr.s_addr == htonl(INADDR_ANY)) got.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address_ = addr_to_string(got);
  }

  ~TcpListener() override { close(); }

  std::unique_ptr<Conn> accept() override {
    if (fd_ < 0) return nullptr;
    sockaddr_in peer{};
    socklen_t len = sizeof peer;
    const int cfd = ::accept(fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (cfd < 0) return nullptr;  // EAGAIN and friends: nothing pending
    set_nonblocking(cfd);
    const int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return std::make_unique<TcpConn>(cfd, addr_to_string(peer));
  }

  void wait(std::chrono::milliseconds timeout) override {
    if (fd_ < 0) return;
    pollfd p{fd_, POLLIN, 0};
    ::poll(&p, 1, static_cast<int>(timeout.count()));
  }

  int native_handle() const noexcept override { return fd_; }

  std::string address() const override { return address_; }

  void close() override {
    if (fd_ < 0) return;
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string address_;
};

class TcpTransport final : public Transport {
 public:
  std::unique_ptr<Listener> listen(const std::string& address) override {
    return std::make_unique<TcpListener>(address);
  }

  std::unique_ptr<Conn> connect(const std::string& address) override {
    const sockaddr_in sa = parse_addr(address, /*for_listen=*/false);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    // Blocking connect (localhost handshakes are instant; remote failures
    // surface as the exception the Client's retry loop expects), then flip
    // to non-blocking for the I/O contract.
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) < 0) {
      ::close(fd);
      throw_errno("connect " + address);
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return std::make_unique<TcpConn>(fd, address);
  }

  const char* name() const noexcept override { return "tcp"; }
};

}  // namespace

std::unique_ptr<Transport> make_tcp_transport() { return std::make_unique<TcpTransport>(); }

}  // namespace aesip::net
