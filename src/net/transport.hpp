// Transport: the byte-stream abstraction under the wire protocol.
//
// Three implementations with one contract so every layer above (FrameCodec,
// Server, Client, loadgen, bench) is transport-blind:
//
//  * TcpTransport       — non-blocking POSIX sockets over localhost or the
//                         network.
//  * UdpTransport       — aesip-netchan-v1 (src/net/netchan.hpp): a reliable
//                         ordered byte stream over UDP datagrams, so the
//                         FrameCodec above it works verbatim. Fragmentation/
//                         reassembly, seq/ack retransmit, and a stateless
//                         challenge handshake live below this interface.
//  * LoopbackTransport  — AF_UNIX stream sockets in the Linux abstract
//                         namespace for CI and benches: no ports, no files,
//                         and a per-call chunk cap that *forces* the
//                         short-read/short-write paths protocol tests need.
//                         It shares TCP's conn and listener code (tcp.cpp).
//
// The contract is deliberately minimal and non-blocking: read_some /
// write_some never block (kWouldBlock instead), and the wait_* calls are
// how callers sleep until progress is possible. Every conn and listener
// is backed by a socket and exposes it (native_handle()), so a server loop
// watches many at once in one epoll set.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace aesip::net {

enum class IoStatus {
  kOk,          ///< n bytes transferred (n >= 1)
  kWouldBlock,  ///< nothing transferable right now; try after wait_*
  kEof,         ///< peer closed cleanly (reads only)
  kError,       ///< connection is dead (reset, broken pipe, ...)
};

struct IoResult {
  std::size_t n = 0;
  IoStatus status = IoStatus::kOk;
};

/// One established byte-stream connection. Single-owner: not thread-safe
/// (the server's event loop or the client own theirs exclusively).
class Conn {
 public:
  virtual ~Conn() = default;

  virtual IoResult read_some(std::span<std::uint8_t> buf) = 0;
  virtual IoResult write_some(std::span<const std::uint8_t> buf) = 0;

  /// Sleep until readable / EOF (true) or timeout (false).
  virtual bool wait_readable(std::chrono::milliseconds timeout) = 0;
  /// Sleep until writable (true) or timeout (false).
  virtual bool wait_writable(std::chrono::milliseconds timeout) = 0;

  /// Half-close is not modeled: close() tears the connection down. The
  /// peer drains whatever was already written, then sees kEof (kError
  /// when this side closed with bytes still unread: a reset).
  virtual void close() = 0;
  virtual std::string peer() const = 0;

  /// The socket fd behind this connection (-1 once closed). The server's
  /// event loops watch handles in bulk; several conns may share one
  /// handle (UDP conns demuxed off one socket, whose close() leaves it
  /// open), so a watcher counts each handle's users.
  virtual int native_handle() const noexcept = 0;
};

class Listener {
 public:
  virtual ~Listener() = default;

  /// Non-blocking: the next pending connection, or nullptr.
  virtual std::unique_ptr<Conn> accept() = 0;

  /// Sleep until native_handle() turns readable or `timeout` elapses (a
  /// plain sleep when there is no handle). Spurious wakeups are allowed —
  /// callers re-scan, they don't trust the wakeup. Virtual so a wrapping
  /// listener can instrument it.
  virtual void wait(std::chrono::milliseconds timeout);

  /// The socket that turns readable when a connection is pending (-1 once
  /// closed, or from a wrapper that does not forward it). Like
  /// Conn::native_handle(), a server loop may watch it.
  virtual int native_handle() const noexcept { return -1; }

  /// The resolved address ("127.0.0.1:49152" after listening on port 0).
  virtual std::string address() const = 0;
  virtual void close() = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Bind and listen. TCP addresses are "host:port" (port 0 = ephemeral);
  /// loopback addresses are arbitrary names. Throws on failure (a name or
  /// port already taken included).
  virtual std::unique_ptr<Listener> listen(const std::string& address) = 0;

  /// Connect or throw std::runtime_error (nobody listening, refused...).
  /// The Client wraps this in its retry/backoff loop.
  virtual std::unique_ptr<Conn> connect(const std::string& address) = 0;

  virtual const char* name() const noexcept = 0;
};

/// Local stream sockets named in the Linux abstract namespace: no port, no
/// file, gone with the last fd. Names are private to this instance —
/// server and client must share it (it is thread-safe: every listener and
/// conn owns its fd) — so two transports in one process may both listen
/// on "svc". `max_chunk` caps the bytes any single read_some / write_some
/// moves, so a small value exercises partial-I/O handling; the kernel
/// socket buffer gives the backpressure (writes to an unread peer end in
/// kWouldBlock, like TCP).
class LoopbackTransport final : public Transport {
 public:
  explicit LoopbackTransport(std::size_t max_chunk = 1u << 16);

  std::unique_ptr<Listener> listen(const std::string& address) override;
  std::unique_ptr<Conn> connect(const std::string& address) override;
  const char* name() const noexcept override { return "loopback"; }

 private:
  std::size_t max_chunk_;
  std::string prefix_;  ///< "\0aesip-lo/<pid>/<instance>/", unique per instance
};

/// Non-blocking TCP sockets; addresses are "host:port". Stateless factory
/// (every listener/conn owns its fd), safe to share across threads.
std::unique_ptr<Transport> make_tcp_transport();

/// Seeded packet mangler applied to every datagram a UdpTransport sends —
/// the chaos harness netchan reliability tests drive. seed == 0 disables
/// mangling entirely (the production configuration). Probabilities are in
/// [0,1) and independent per datagram.
struct UdpChaos {
  std::uint32_t seed = 0;
  double drop = 0;     ///< datagram silently discarded
  double dup = 0;      ///< datagram sent twice
  double reorder = 0;  ///< datagram held back and swapped with the next one
};

/// aesip-netchan-v1 tuning. Defaults serve production traffic; tests
/// shrink the timers to exercise retransmission quickly.
struct UdpConfig {
  std::size_t mtu = 1200;       ///< max datagram size incl. netchan header
  std::size_t window = 64;      ///< max unacked outgoing segments per conn
  std::chrono::milliseconds rto{25};          ///< retransmit timeout
  std::size_t max_resend = 400;               ///< per-segment resend cap -> conn dead
  std::uint64_t secret = 0;     ///< cookie HMAC secret; 0 = randomized
  std::chrono::milliseconds cookie_epoch{8000};    ///< cookie rotation period
  std::chrono::milliseconds handshake_timeout{2000};
  std::chrono::milliseconds linger{250};      ///< retransmit window after close()
  UdpChaos chaos;
};

/// UDP datagrams under the same byte-stream contract, via aesip-netchan-v1
/// (fragmentation/reassembly, stateless challenge handshake, seq/ack
/// reliability — docs/cluster.md). Addresses are "host:port" like TCP.
std::unique_ptr<Transport> make_udp_transport(UdpConfig cfg = {});

}  // namespace aesip::net
