#include "net/client.hpp"

#include <algorithm>
#include <thread>

namespace aesip::net {

namespace {

/// Retry/backoff connect, doubly bounded: `connect_attempts` tries, and
/// `connect_wait_max` of total sleeping. Exhausting either throws
/// WireError(kConnectFailed) carrying the last underlying failure text
/// (which for TCP includes strerror(errno) — the caller learns *why*).
std::unique_ptr<Conn> connect_with_backoff(Transport& transport, const std::string& address,
                                           const ClientConfig& cfg) {
  auto backoff = cfg.backoff_initial;
  const auto give_up = std::chrono::steady_clock::now() + cfg.connect_wait_max;
  const int attempts = std::max(1, cfg.connect_attempts);
  std::string last_err;
  for (int attempt = 1;; ++attempt) {
    try {
      return transport.connect(address);
    } catch (const std::exception& e) {
      last_err = e.what();
    }
    if (attempt >= attempts || std::chrono::steady_clock::now() + backoff > give_up)
      throw WireError(ErrorCode::kConnectFailed,
                      "connect " + address + " failed after " + std::to_string(attempt) +
                          " attempt(s): " + last_err);
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, cfg.backoff_max);
  }
}

}  // namespace

Client::Client(Transport& transport, const std::string& address, std::uint64_t session_id,
               ClientConfig cfg)
    : cfg_(cfg), transport_(&transport), address_(address),
      conn_(connect_with_backoff(transport, address, cfg)), session_id_(session_id) {
  send_hello();
  const auto p = wait_control(Op::kHelloOk, 0);
  if (p.size() < 8) throw std::runtime_error("net: short kHelloOk payload");
  max_payload_ = get_u32(p, 0);
  window_ = std::max<std::uint32_t>(1, get_u32(p, 4));
}

Client::~Client() {
  if (conn_) conn_->close();
}

void Client::send_hello() {
  Frame f;
  f.op = Op::kHello;
  f.flags = cfg_.pinned ? kFlagPinned : 0;
  f.session_id = session_id_;
  f.seq = 0;
  const auto bytes = encode_frame(f);
  outbuf_.insert(outbuf_.end(), bytes.begin(), bytes.end());
}

void Client::set_key(std::span<const std::uint8_t> key) {
  if (key.size() != 16 && key.size() != 24 && key.size() != 32)
    throw std::invalid_argument("net: key must be 16, 24 or 32 bytes");
  key_.assign(key.begin(), key.end());  // remembered for redirect re-keying
  const std::uint32_t seq = next_seq_++;
  send(Op::kSetKey, seq, std::vector<std::uint8_t>(key.begin(), key.end()));
  wait_control(Op::kKeyOk, seq);
}

void Client::rekey(std::span<const std::uint8_t> key) {
  if (key.size() != 16 && key.size() != 24 && key.size() != 32)
    throw std::invalid_argument("net: key must be 16, 24 or 32 bytes");
  key_.assign(key.begin(), key.end());
  const std::uint32_t seq = next_seq_++;
  send(Op::kRekey, seq, std::vector<std::uint8_t>(key.begin(), key.end()));
  wait_control(Op::kKeyOk, seq);
}

std::uint32_t Client::submit_enc(bool cbc, const farm::Key128& iv,
                                 std::vector<std::uint8_t> data) {
  std::vector<std::uint8_t> p;
  p.reserve(17 + data.size());
  p.push_back(cbc ? 1 : 0);
  p.insert(p.end(), iv.begin(), iv.end());
  p.insert(p.end(), data.begin(), data.end());
  return submit_data(Op::kEncBlocks, std::move(p));
}

std::uint32_t Client::submit_dec(bool cbc, const farm::Key128& iv,
                                 std::vector<std::uint8_t> data) {
  std::vector<std::uint8_t> p;
  p.reserve(17 + data.size());
  p.push_back(cbc ? 1 : 0);
  p.insert(p.end(), iv.begin(), iv.end());
  p.insert(p.end(), data.begin(), data.end());
  return submit_data(Op::kDecBlocks, std::move(p));
}

std::uint32_t Client::submit_ctr(const farm::Key128& counter, std::vector<std::uint8_t> data) {
  std::vector<std::uint8_t> p;
  p.reserve(16 + data.size());
  p.insert(p.end(), counter.begin(), counter.end());
  p.insert(p.end(), data.begin(), data.end());
  return submit_data(Op::kCtrStream, std::move(p));
}

std::uint32_t Client::submit_data(Op op, std::vector<std::uint8_t> payload) {
  if (max_payload_ && payload.size() > max_payload_)
    throw std::invalid_argument("net: payload exceeds server max_payload");
  // Honor the window: pump until a response frees a slot.
  pump([&] { return in_flight_ < window_; });
  const std::uint32_t seq = next_seq_++;
  send(op, seq, std::move(payload));
  ++in_flight_;
  data_seqs_.insert(seq);
  flush_once();  // the frame just queued should head for the server now
  return seq;
}

void Client::flush_once() {
  while (out_off_ < outbuf_.size()) {
    const IoResult r = conn_->write_some(
        std::span<const std::uint8_t>(outbuf_.data() + out_off_, outbuf_.size() - out_off_));
    if (r.status == IoStatus::kOk) {
      out_off_ += r.n;
    } else if (r.status == IoStatus::kWouldBlock) {
      return;  // transport backpressure; the next pump retries
    } else {
      throw std::runtime_error("net: connection lost while writing");
    }
  }
  outbuf_.clear();
  out_off_ = 0;
}

std::vector<std::uint8_t> Client::wait(std::uint32_t seq) {
  pump([&] { return completed_.count(seq) != 0; });
  Frame f = std::move(completed_.at(seq));
  completed_.erase(seq);
  if (f.op == Op::kError) {
    ErrorCode code;
    std::string msg;
    decode_error_payload(f.payload, code, msg);
    throw WireError(code, msg);
  }
  if (f.op != Op::kResult) throw std::runtime_error("net: unexpected response to data frame");
  return std::move(f.payload);
}

void Client::drain() {
  const std::uint32_t seq = next_seq_++;
  send(Op::kDrain, seq, {});
  wait_control(Op::kDrainOk, seq);
}

std::string Client::stats_json() {
  const std::uint32_t seq = next_seq_++;
  send(Op::kStats, seq, {});
  const auto p = wait_control(Op::kStatsOk, seq);
  return std::string(p.begin(), p.end());
}

std::vector<std::uint8_t> Client::gossip(std::vector<std::uint8_t> view) {
  const std::uint32_t seq = next_seq_++;
  send(Op::kGossip, seq, std::move(view));
  return wait_control(Op::kGossipOk, seq);
}

std::string Client::fleet_status_json() {
  const std::uint32_t seq = next_seq_++;
  send(Op::kAdminStatus, seq, {});
  const auto p = wait_control(Op::kAdminStatusOk, seq);
  return std::string(p.begin(), p.end());
}

std::string Client::fleet_swap(int worker, std::uint8_t kind, const std::string& variant) {
  const std::uint32_t seq = next_seq_++;
  std::vector<std::uint8_t> payload;
  payload.push_back(worker < 0 ? 0xff : static_cast<std::uint8_t>(worker));
  payload.push_back(kind);
  payload.insert(payload.end(), variant.begin(), variant.end());
  send(Op::kAdminSwapEngine, seq, std::move(payload));
  const auto p = wait_control(Op::kAdminOk, seq);
  return std::string(p.begin(), p.end());
}

std::string Client::fleet_quarantine(int worker, bool resume) {
  const std::uint32_t seq = next_seq_++;
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(worker));
  payload.push_back(resume ? 1 : 0);
  send(Op::kAdminQuarantine, seq, std::move(payload));
  const auto p = wait_control(Op::kAdminOk, seq);
  return std::string(p.begin(), p.end());
}

std::string Client::fleet_inject(int worker, std::uint32_t site) {
  const std::uint32_t seq = next_seq_++;
  std::vector<std::uint8_t> payload;
  payload.push_back(worker < 0 ? 0xff : static_cast<std::uint8_t>(worker));
  put_u32(payload, site);
  send(Op::kAdminInject, seq, std::move(payload));
  const auto p = wait_control(Op::kAdminOk, seq);
  return std::string(p.begin(), p.end());
}

void Client::bye() {
  const std::uint32_t seq = next_seq_++;
  send(Op::kBye, seq, {});
  wait_control(Op::kByeOk, seq);
  conn_->close();
}

void Client::send(Op op, std::uint32_t seq, std::vector<std::uint8_t> payload) {
  Frame f;
  f.op = op;
  f.session_id = session_id_;
  f.seq = seq;
  f.payload = std::move(payload);
  const auto bytes = encode_frame(f);
  outbuf_.insert(outbuf_.end(), bytes.begin(), bytes.end());
  // Every request is remembered until its response arrives: the replay
  // buffer that makes a mid-stream redirect lossless.
  pending_[seq] = std::move(f);
}

void Client::on_frame(Frame&& f) {
  if (f.op == Op::kRedirect) {
    // The session's owner is elsewhere. Keep the unanswered frames in
    // pending_ — the redirect pass replays them at the owner.
    redirect_target_.assign(f.payload.begin(), f.payload.end());
    redirect_pending_ = true;
    return;
  }
  // Responses index by seq; an unmatched seq is a server bug we surface
  // at the next wait rather than dropping silently. Only responses to
  // data frames occupy window slots.
  pending_.erase(f.seq);
  if (data_seqs_.erase(f.seq) && in_flight_ > 0) --in_flight_;
  completed_[f.seq] = std::move(f);
}

/// Read exactly one frame, blocking up to `deadline`. Used only by the
/// redirect path, where re-entering pump() would recurse.
Frame Client::read_one_frame(std::chrono::steady_clock::time_point deadline) {
  std::uint8_t buf[4096];
  Frame f;
  for (;;) {
    flush_once();
    const auto st = decoder_.next(f);
    if (st == FrameDecoder::Status::kFrame) return f;
    if (st == FrameDecoder::Status::kBad)
      throw std::runtime_error(std::string("net: malformed server frame: ") +
                               error_code_name(decoder_.error()));
    const IoResult r = conn_->read_some(buf);
    if (r.status == IoStatus::kOk) {
      decoder_.feed(std::span<const std::uint8_t>(buf, r.n));
    } else if (r.status == IoStatus::kWouldBlock) {
      if (std::chrono::steady_clock::now() >= deadline)
        throw std::runtime_error("net: timed out during redirect handshake");
      conn_->wait_readable(std::chrono::milliseconds(10));
    } else if (r.status == IoStatus::kEof) {
      throw std::runtime_error("net: server closed the connection during redirect");
    } else {
      throw std::runtime_error("net: connection lost during redirect");
    }
  }
}

/// Follow a kRedirect: reconnect at the owner, re-HELLO, re-install the
/// session key, then replay every frame still awaiting a response with its
/// original seq — the in-flight bookkeeping (data_seqs_, in_flight_) is
/// untouched, so callers' wait(seq) just completes against the new node.
void Client::do_redirect(const std::string& first_target) {
  std::string target = first_target;
  const auto deadline = std::chrono::steady_clock::now() + cfg_.io_timeout;
  for (int hop = 1;; ++hop) {
    if (hop > cfg_.max_redirects)
      throw WireError(ErrorCode::kConnectFailed,
                      "redirect hop limit (" + std::to_string(cfg_.max_redirects) +
                          ") exceeded chasing session owner");
    ++redirects_;
    conn_->close();
    conn_ = connect_with_backoff(*transport_, target, cfg_);
    address_ = target;
    decoder_ = FrameDecoder{};
    outbuf_.clear();
    out_off_ = 0;

    send_hello();
    Frame h = read_one_frame(deadline);
    if (h.op == Op::kRedirect) {  // membership moved again mid-chase
      target.assign(h.payload.begin(), h.payload.end());
      continue;
    }
    if (h.op == Op::kError) {
      ErrorCode code;
      std::string msg;
      decode_error_payload(h.payload, code, msg);
      throw WireError(code, msg);
    }
    if (h.op != Op::kHelloOk || h.payload.size() < 8)
      throw std::runtime_error("net: bad HELLO_OK during redirect");
    max_payload_ = get_u32(h.payload, 0);
    window_ = std::max<std::uint32_t>(1, get_u32(h.payload, 4));

    if (!key_.empty()) {
      const std::uint32_t kseq = next_seq_++;
      send(Op::kSetKey, kseq, key_);
      Frame k = read_one_frame(deadline);
      pending_.erase(kseq);
      if (k.op == Op::kRedirect) {
        target.assign(k.payload.begin(), k.payload.end());
        continue;
      }
      if (k.op != Op::kKeyOk)
        throw std::runtime_error("net: key re-install refused during redirect");
    }
    // Satisfy a constructor-time wait_control(kHelloOk, 0) if that is who
    // triggered this redirect; otherwise it just overwrites a stale entry.
    completed_[0] = std::move(h);
    break;
  }
  for (const auto& [seq, f] : pending_) {
    const auto bytes = encode_frame(f);
    outbuf_.insert(outbuf_.end(), bytes.begin(), bytes.end());
  }
  flush_once();
}

template <typename Stop>
void Client::pump(Stop&& stop) {
  const auto deadline = std::chrono::steady_clock::now() + cfg_.io_timeout;
  int hops = 0;
  std::uint8_t buf[4096];
  // The stop condition is checked only after a full write/read/decode
  // pass: even a pump that is already satisfied (e.g. a pipelined submit
  // under a roomy window) must push queued frames toward the server.
  for (;;) {
    bool progress = false;
    // Writes first: the request being waited on may still be queued.
    while (out_off_ < outbuf_.size()) {
      const IoResult r = conn_->write_some(std::span<const std::uint8_t>(
          outbuf_.data() + out_off_, outbuf_.size() - out_off_));
      if (r.status == IoStatus::kOk) {
        out_off_ += r.n;
        progress = true;
      } else if (r.status == IoStatus::kWouldBlock) {
        break;
      } else {
        throw std::runtime_error("net: connection lost while writing");
      }
    }
    if (out_off_ >= outbuf_.size() && out_off_ > 0) {
      outbuf_.clear();
      out_off_ = 0;
    }

    bool eof = false;
    for (;;) {
      const IoResult r = conn_->read_some(buf);
      if (r.status == IoStatus::kOk) {
        decoder_.feed(std::span<const std::uint8_t>(buf, r.n));
        progress = true;
      } else if (r.status == IoStatus::kWouldBlock) {
        break;
      } else {
        // Closed or reset (kError: the server closed with our bytes unread):
        // decode what already arrived first, a kError frame may explain it.
        eof = true;
        break;
      }
    }

    Frame f;
    for (;;) {
      const auto st = decoder_.next(f);
      if (st == FrameDecoder::Status::kNeedMore) break;
      if (st == FrameDecoder::Status::kBad)
        throw std::runtime_error(std::string("net: malformed server frame: ") +
                                 error_code_name(decoder_.error()));
      on_frame(std::move(f));
      progress = true;
    }

    if (redirect_pending_) {
      redirect_pending_ = false;
      const std::string target = redirect_target_;
      if (!cfg_.follow_redirects)
        throw WireError(ErrorCode::kConnectFailed,
                        "server redirected to " + target + " but redirects are disabled");
      if (++hops > cfg_.max_redirects)
        throw WireError(ErrorCode::kConnectFailed,
                        "redirect hop limit (" + std::to_string(cfg_.max_redirects) +
                            ") exceeded chasing session owner");
      do_redirect(target);
      eof = false;  // fresh connection
      progress = true;
    }

    if (stop()) return;
    if (eof) throw std::runtime_error("net: server closed the connection");
    if (!progress) {
      if (std::chrono::steady_clock::now() >= deadline)
        throw std::runtime_error("net: timed out waiting for server");
      const bool want_write = out_off_ < outbuf_.size();
      if (want_write)
        conn_->wait_writable(std::chrono::milliseconds(10));
      else
        conn_->wait_readable(std::chrono::milliseconds(10));
    }
  }
}

std::vector<std::uint8_t> Client::wait_control(Op ack, std::uint32_t seq) {
  pump([&] { return completed_.count(seq) != 0; });
  Frame f = std::move(completed_.at(seq));
  completed_.erase(seq);
  if (f.op == Op::kError) {
    ErrorCode code;
    std::string msg;
    decode_error_payload(f.payload, code, msg);
    throw WireError(code, msg);
  }
  if (f.op != ack)
    throw std::runtime_error(std::string("net: expected ") + op_name(ack) + ", got " +
                             op_name(f.op));
  return f.payload;
}

}  // namespace aesip::net
