// UdpTransport: aesip-netchan-v1 over real UDP sockets, behind the same
// Conn/Listener/Transport contract as TCP — the layers above stay
// transport-blind, and the FrameCodec byte stream rides the reliable
// ordered channel netchan.cpp implements.
//
// Topology: one socket per listener, demuxed by source address into
// per-peer channels (a server serves every UDP session off one fd — which
// is also why Conn::native_handle may repeat and a server loop counts
// each handle's users);
// one connected socket per client conn. All listener-side state lives in
// a shared UdpHub under one mutex: the event loop(s) call pump() from
// every entry point, which drains the socket, routes packets, answers
// handshakes statelessly, and flushes due retransmits/acks.
//
// The handshake never allocates before the cookie round-trip proves the
// source address is real (netchan.hpp documents the exchange). Closed
// conns with unacked data linger as zombies for UdpConfig::linger so the
// tail of a response survives one more retransmit round.
#include "net/netchan.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace aesip::net {

namespace {

using netchan::Packet;
using netchan::PacketType;
using clock_t_ = std::chrono::steady_clock;

using detail::addr_to_string;

netchan::ChannelConfig channel_config(const UdpConfig& cfg) {
  netchan::ChannelConfig c;
  c.mtu_payload = cfg.mtu > netchan::kPacketOverhead + 1
                      ? cfg.mtu - netchan::kPacketOverhead
                      : 1;
  c.window = cfg.window;
  c.rto = cfg.rto;
  c.max_resend = cfg.max_resend;
  return c;
}

std::uint64_t epoch_now(const UdpConfig& cfg) {
  const auto t = clock_t_::now().time_since_epoch();
  const auto period = cfg.cookie_epoch.count() > 0 ? cfg.cookie_epoch
                                                   : std::chrono::milliseconds(1);
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(t).count() /
      period.count());
}

/// The seeded packet mangler (UdpChaos): drop/dup/reorder applied at the
/// sendto boundary, deterministically per seed. Reordering holds one
/// datagram back and emits it after the next send — retransmission
/// guarantees a next send, so nothing is held forever.
class Mangler {
 public:
  explicit Mangler(UdpChaos chaos, std::uint32_t salt)
      : chaos_(chaos), rng_(chaos.seed ^ salt) {}

  template <typename SendFn>
  void send(std::vector<std::uint8_t> bytes, const sockaddr_in& to, SendFn&& raw) {
    if (chaos_.seed == 0) {
      raw(bytes, to);
      return;
    }
    if (roll() < chaos_.drop) return;
    if (holding_) {
      raw(bytes, to);
      raw(held_, held_to_);  // the older datagram lands second: reordered
      holding_ = false;
      return;
    }
    if (roll() < chaos_.reorder) {
      held_ = std::move(bytes);
      held_to_ = to;
      holding_ = true;
      return;
    }
    raw(bytes, to);
    if (roll() < chaos_.dup) raw(bytes, to);
  }

 private:
  double roll() { return std::uniform_real_distribution<double>(0.0, 1.0)(rng_); }

  UdpChaos chaos_;
  std::mt19937 rng_;
  std::vector<std::uint8_t> held_;
  sockaddr_in held_to_{};
  bool holding_ = false;
};

// --- server side -------------------------------------------------------------

struct UdpPeer {
  sockaddr_in sa{};
  std::string addr_str;
  std::uint32_t conv = 0;
  netchan::Channel channel;
  bool accepted = false;      ///< handed out by Listener::accept
  bool local_closed = false;  ///< conn closed; zombie until idle or deadline
  bool bye_sent = false;
  clock_t_::time_point close_deadline{};

  UdpPeer(const sockaddr_in& a, std::uint32_t c, const netchan::ChannelConfig& cc)
      : sa(a), addr_str(addr_to_string(a)), conv(c), channel(cc) {}
};

/// Everything behind one listening socket. Conns and the listener share it;
/// every public op locks, pumps, acts, flushes.
struct UdpHub {
  std::mutex mu;
  UdpConfig cfg;
  int fd = -1;
  bool closed = false;
  std::uint32_t next_conv = 1;
  std::map<std::string, std::shared_ptr<UdpPeer>> peers;  ///< by source address
  std::deque<std::shared_ptr<UdpPeer>> pending_accepts;
  Mangler mangler;
  clock_t_::time_point last_flush_scan{};

  explicit UdpHub(UdpConfig c) : cfg(c), mangler(c.chaos, 0x5eed0000u) {}

  ~UdpHub() {
    if (fd >= 0) ::close(fd);
  }

  void raw_send(const std::vector<std::uint8_t>& bytes, const sockaddr_in& to) {
    if (fd < 0) return;
    ::sendto(fd, bytes.data(), bytes.size(), 0, reinterpret_cast<const sockaddr*>(&to),
             sizeof to);  // best effort; loss is netchan's business
  }

  void send_packet(const Packet& p, const sockaddr_in& to) {
    mangler.send(netchan::encode_packet(p), to,
                 [this](const std::vector<std::uint8_t>& b, const sockaddr_in& t) {
                   raw_send(b, t);
                 });
  }

  void flush_peer(const std::shared_ptr<UdpPeer>& p, clock_t_::time_point now) {
    Packet out;
    while (p->channel.poll_outgoing(out, now)) {
      out.conv = p->conv;
      send_packet(out, p->sa);
    }
  }

  /// Drain the socket, route/answer packets, flush due output. Callers
  /// hold mu. Bounded: the recv loop ends at EAGAIN, and the full flush
  /// scan runs at most once per millisecond so per-conn entry points stay
  /// O(1) in the peer count.
  void pump(clock_t_::time_point now) {
    if (fd < 0) return;
    std::uint8_t buf[65536];
    for (int round = 0; round < 256; ++round) {
      sockaddr_in from{};
      socklen_t fromlen = sizeof from;
      const ssize_t n = ::recvfrom(fd, buf, sizeof buf, 0,
                                   reinterpret_cast<sockaddr*>(&from), &fromlen);
      if (n < 0) break;  // EAGAIN and friends: drained
      Packet p;
      if (!decode_packet(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)), p))
        continue;  // mangled or foreign datagram: drop before any state
      handle_packet(p, from, now);
    }
    if (now - last_flush_scan >= std::chrono::milliseconds(1)) {
      last_flush_scan = now;
      for (auto it = peers.begin(); it != peers.end();) {
        flush_peer(it->second, now);
        it = maybe_reap(it, now);
      }
    }
  }

  void handle_packet(const Packet& p, const sockaddr_in& from, clock_t_::time_point now) {
    const std::string key = addr_to_string(from);
    switch (p.type) {
      case PacketType::kChallengeReq: {
        // Stateless: the reply is computed, not stored. A spoofed source
        // costs this hash and one datagram to the spoofed address.
        Packet ch;
        ch.type = PacketType::kChallenge;
        ch.cookie = netchan::make_cookie(key, cfg.secret, epoch_now(cfg));
        send_packet(ch, from);
        return;
      }
      case PacketType::kConnect: {
        if (!netchan::cookie_valid(p.cookie, key, cfg.secret, epoch_now(cfg)))
          return;  // stale or forged cookie: silently drop, still stateless
        auto it = peers.find(key);
        if (it == peers.end()) {
          auto peer = std::make_shared<UdpPeer>(from, next_conv++, channel_config(cfg));
          it = peers.emplace(key, peer).first;
          pending_accepts.push_back(peer);
        }
        // Idempotent: a lost kAccept means the client re-sends kConnect.
        Packet acc;
        acc.type = PacketType::kAccept;
        acc.conv = it->second->conv;
        acc.cookie = p.cookie;
        send_packet(acc, from);
        return;
      }
      case PacketType::kData:
      case PacketType::kAck:
      case PacketType::kBye: {
        const auto it = peers.find(key);
        if (it == peers.end() || it->second->conv != p.conv) return;  // no state, no cost
        it->second->channel.on_packet(p, now);
        flush_peer(it->second, now);  // acks out promptly
        return;
      }
      default:
        return;
    }
  }

  /// Reap closed peers once their channel went idle (everything acked) or
  /// the linger deadline passed; a kBye tells the peer it is over.
  std::map<std::string, std::shared_ptr<UdpPeer>>::iterator maybe_reap(
      std::map<std::string, std::shared_ptr<UdpPeer>>::iterator it,
      clock_t_::time_point now) {
    UdpPeer& p = *it->second;
    if (!p.local_closed) return ++it;
    if (!p.channel.idle() && !p.channel.dead() && now < p.close_deadline) return ++it;
    if (!p.bye_sent) {
      Packet bye;
      bye.type = PacketType::kBye;
      bye.conv = p.conv;
      send_packet(bye, p.sa);
      p.bye_sent = true;
    }
    return peers.erase(it);
  }

  /// Cap a wait so the earliest retransmit deadline is honored.
  std::chrono::milliseconds cap_wait(std::chrono::milliseconds want,
                                     clock_t_::time_point now) {
    auto cap = want;
    for (const auto& [key, p] : peers) {
      (void)key;
      const auto due = p->channel.next_deadline();
      if (!due) continue;
      if (*due <= now) return std::chrono::milliseconds(0);
      cap = std::min(cap, std::chrono::duration_cast<std::chrono::milliseconds>(*due - now) +
                              std::chrono::milliseconds(1));
    }
    return std::max(cap, std::chrono::milliseconds(0));
  }
};

class UdpServerConn final : public Conn {
 public:
  UdpServerConn(std::shared_ptr<UdpHub> hub, std::shared_ptr<UdpPeer> peer)
      : hub_(std::move(hub)), peer_(std::move(peer)) {}

  ~UdpServerConn() override { close(); }

  IoResult read_some(std::span<std::uint8_t> buf) override {
    std::lock_guard lk(hub_->mu);
    hub_->pump(clock_t_::now());
    const std::size_t n = peer_->channel.receive(buf);
    if (n > 0) return {n, IoStatus::kOk};
    if (peer_->channel.dead()) return {0, IoStatus::kError};
    if (peer_->channel.peer_closed() && peer_->channel.recv_drained())
      return {0, IoStatus::kEof};
    return {0, IoStatus::kWouldBlock};
  }

  IoResult write_some(std::span<const std::uint8_t> buf) override {
    std::lock_guard lk(hub_->mu);
    const auto now = clock_t_::now();
    if (peer_->channel.dead() || peer_->local_closed || hub_->closed)
      return {0, IoStatus::kError};
    const std::size_t n = peer_->channel.send(buf);
    hub_->flush_peer(peer_, now);
    if (n > 0) return {n, IoStatus::kOk};
    return {0, IoStatus::kWouldBlock};
  }

  bool wait_readable(std::chrono::milliseconds timeout) override {
    return wait_common(timeout);
  }
  bool wait_writable(std::chrono::milliseconds timeout) override {
    return wait_common(timeout);
  }

  void close() override {
    std::lock_guard lk(hub_->mu);
    if (peer_->local_closed) return;
    const auto now = clock_t_::now();
    peer_->local_closed = true;
    peer_->close_deadline = now + hub_->cfg.linger;
    // Reap immediately when the channel is already quiet; otherwise the
    // hub's pump retransmits the tail until acked or the linger expires.
    auto it = hub_->peers.find(peer_->addr_str);
    if (it != hub_->peers.end() && it->second == peer_) hub_->maybe_reap(it, now);
  }

  std::string peer() const override { return peer_->addr_str; }

  int native_handle() const noexcept override { return hub_->fd; }

 private:
  bool wait_common(std::chrono::milliseconds timeout) {
    std::chrono::milliseconds capped;
    {
      std::lock_guard lk(hub_->mu);
      const auto now = clock_t_::now();
      hub_->pump(now);
      if (!peer_->channel.recv_drained() || peer_->channel.dead() ||
          peer_->channel.peer_closed())
        return true;
      capped = hub_->cap_wait(timeout, now);
      if (hub_->fd < 0) return false;
    }
    if (capped.count() > 0) {
      pollfd p{hub_->fd, POLLIN, 0};
      ::poll(&p, 1, static_cast<int>(capped.count()));
    }
    std::lock_guard lk(hub_->mu);
    hub_->pump(clock_t_::now());
    return !peer_->channel.recv_drained();
  }

  std::shared_ptr<UdpHub> hub_;
  std::shared_ptr<UdpPeer> peer_;
};

class UdpListener final : public Listener {
 public:
  UdpListener(const std::string& address, UdpConfig cfg)
      : hub_(std::make_shared<UdpHub>(cfg)) {
    const sockaddr_in want = detail::parse_addr("udp", address, /*for_listen=*/true);
    hub_->fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (hub_->fd < 0) detail::throw_errno("udp", "socket");
    if (::bind(hub_->fd, reinterpret_cast<const sockaddr*>(&want), sizeof want) < 0) {
      ::close(hub_->fd);
      hub_->fd = -1;
      detail::throw_errno("udp", "bind " + address);
    }
    detail::set_nonblocking("udp", hub_->fd);
    sockaddr_in got{};
    socklen_t len = sizeof got;
    ::getsockname(hub_->fd, reinterpret_cast<sockaddr*>(&got), &len);
    if (got.sin_addr.s_addr == htonl(INADDR_ANY)) got.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address_ = addr_to_string(got);
  }

  ~UdpListener() override { close(); }

  std::unique_ptr<Conn> accept() override {
    std::lock_guard lk(hub_->mu);
    hub_->pump(clock_t_::now());
    if (hub_->pending_accepts.empty()) return nullptr;
    auto peer = std::move(hub_->pending_accepts.front());
    hub_->pending_accepts.pop_front();
    peer->accepted = true;
    return std::make_unique<UdpServerConn>(hub_, std::move(peer));
  }

  int native_handle() const noexcept override { return hub_->fd; }

  std::string address() const override { return address_; }

  void close() override {
    std::lock_guard lk(hub_->mu);
    if (hub_->closed) return;
    hub_->closed = true;
    if (hub_->fd >= 0) {
      ::close(hub_->fd);
      hub_->fd = -1;
    }
    hub_->pending_accepts.clear();
  }

 private:
  std::shared_ptr<UdpHub> hub_;
  std::string address_;
};

// --- client side -------------------------------------------------------------

class UdpClientConn final : public Conn {
 public:
  UdpClientConn(int fd, std::string peer, std::uint32_t conv, UdpConfig cfg)
      : fd_(fd), peer_(std::move(peer)), conv_(conv), cfg_(cfg),
        channel_(channel_config(cfg)), mangler_(cfg.chaos, conv ^ 0xc11e0000u) {}

  ~UdpClientConn() override { close(); }

  IoResult read_some(std::span<std::uint8_t> buf) override {
    pump();
    const std::size_t n = channel_.receive(buf);
    if (n > 0) return {n, IoStatus::kOk};
    if (channel_.dead() || fd_ < 0) return {0, IoStatus::kError};
    if (channel_.peer_closed() && channel_.recv_drained()) return {0, IoStatus::kEof};
    return {0, IoStatus::kWouldBlock};
  }

  IoResult write_some(std::span<const std::uint8_t> buf) override {
    if (fd_ < 0 || channel_.dead() || channel_.peer_closed()) return {0, IoStatus::kError};
    const std::size_t n = channel_.send(buf);
    pump();
    if (n > 0) return {n, IoStatus::kOk};
    return {0, IoStatus::kWouldBlock};
  }

  bool wait_readable(std::chrono::milliseconds timeout) override {
    return wait_common(timeout);
  }
  bool wait_writable(std::chrono::milliseconds timeout) override {
    return wait_common(timeout);
  }

  void close() override {
    if (fd_ < 0) return;
    // Bounded linger: give the tail one more chance to be acked, then a
    // best-effort kBye so the server reaps the peer promptly.
    const auto deadline = clock_t_::now() + std::min(cfg_.linger, std::chrono::milliseconds(100));
    while (!channel_.idle() && !channel_.dead() && clock_t_::now() < deadline) {
      pump();
      pollfd p{fd_, POLLIN, 0};
      ::poll(&p, 1, 1);
    }
    Packet bye;
    bye.type = PacketType::kBye;
    bye.conv = conv_;
    bye.ack = 0;
    send_packet(bye);
    ::close(fd_);
    fd_ = -1;
  }

  std::string peer() const override { return peer_; }

  int native_handle() const noexcept override { return fd_; }

 private:
  void send_packet(const Packet& p) {
    mangler_.send(netchan::encode_packet(p), sockaddr_in{},
                  [this](const std::vector<std::uint8_t>& b, const sockaddr_in&) {
                    if (fd_ >= 0) ::send(fd_, b.data(), b.size(), 0);
                  });
  }

  /// Drain the socket into the channel, flush due output. Single-owner
  /// like every Conn, so no locking.
  void pump() {
    if (fd_ < 0) return;
    const auto now = clock_t_::now();
    std::uint8_t buf[65536];
    for (int round = 0; round < 256; ++round) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n < 0) break;
      Packet p;
      if (!decode_packet(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)), p))
        continue;
      if (p.type == PacketType::kAccept) continue;  // duplicate accept: handshake done
      if (p.conv != conv_) continue;
      channel_.on_packet(p, now);
    }
    Packet out;
    while (channel_.poll_outgoing(out, now)) {
      out.conv = conv_;
      send_packet(out);
    }
  }

  bool wait_common(std::chrono::milliseconds timeout) {
    pump();
    if (!channel_.recv_drained() || channel_.dead() || channel_.peer_closed()) return true;
    auto cap = timeout;
    const auto due = channel_.next_deadline();
    const auto now = clock_t_::now();
    if (due) {
      if (*due <= now)
        cap = std::chrono::milliseconds(0);
      else
        cap = std::min(cap, std::chrono::duration_cast<std::chrono::milliseconds>(*due - now) +
                                std::chrono::milliseconds(1));
    }
    if (cap.count() > 0 && fd_ >= 0) {
      pollfd p{fd_, POLLIN, 0};
      ::poll(&p, 1, static_cast<int>(cap.count()));
    }
    pump();
    return !channel_.recv_drained();
  }

  int fd_;
  std::string peer_;
  std::uint32_t conv_;
  UdpConfig cfg_;
  netchan::Channel channel_;
  Mangler mangler_;
};

class UdpTransport final : public Transport {
 public:
  explicit UdpTransport(UdpConfig cfg) : cfg_(cfg) {
    if (cfg_.secret == 0) {
      std::random_device rd;
      cfg_.secret = (static_cast<std::uint64_t>(rd()) << 32) | rd();
    }
    if (cfg_.mtu <= netchan::kPacketOverhead) cfg_.mtu = netchan::kPacketOverhead + 1;
  }

  std::unique_ptr<Listener> listen(const std::string& address) override {
    return std::make_unique<UdpListener>(address, cfg_);
  }

  std::unique_ptr<Conn> connect(const std::string& address) override {
    const sockaddr_in sa = detail::parse_addr("udp", address, /*for_listen=*/false);
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) detail::throw_errno("udp", "socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) < 0) {
      ::close(fd);
      detail::throw_errno("udp", "connect " + address);
    }
    detail::set_nonblocking("udp", fd);

    // The challenge handshake, synchronously with bounded retries — the
    // Client's backoff ladder wraps the whole attempt like a TCP connect.
    const auto deadline = clock_t_::now() + cfg_.handshake_timeout;
    const auto resend_every = std::max<clock_t_::duration>(cfg_.rto, std::chrono::milliseconds(10));
    std::uint64_t cookie = 0;
    bool have_cookie = false;
    bool send_now = true;  // a time_point::min() sentinel would overflow now-last_send
    auto last_send = clock_t_::now();
    std::uint8_t buf[2048];
    for (;;) {
      const auto now = clock_t_::now();
      if (now >= deadline) {
        ::close(fd);
        throw std::runtime_error("udp: connect " + address +
                                 ": handshake timed out (no server?)");
      }
      if (send_now || now - last_send >= resend_every) {
        send_now = false;
        Packet req;
        req.type = have_cookie ? PacketType::kConnect : PacketType::kChallengeReq;
        req.cookie = cookie;
        const auto bytes = netchan::encode_packet(req);
        ::send(fd, bytes.data(), bytes.size(), 0);
        last_send = now;
      }
      pollfd p{fd, POLLIN, 0};
      ::poll(&p, 1, 5);
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n < 0) continue;
      Packet resp;
      if (!decode_packet(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)), resp))
        continue;
      if (resp.type == PacketType::kChallenge) {
        cookie = resp.cookie;
        have_cookie = true;
        send_now = true;  // kConnect goes out on the next loop pass
      } else if (resp.type == PacketType::kAccept && have_cookie) {
        return std::make_unique<UdpClientConn>(fd, address, resp.conv, cfg_);
      }
    }
  }

  const char* name() const noexcept override { return "udp"; }

 private:
  UdpConfig cfg_;
};

}  // namespace

std::unique_ptr<Transport> make_udp_transport(UdpConfig cfg) {
  return std::make_unique<UdpTransport>(cfg);
}

}  // namespace aesip::net
