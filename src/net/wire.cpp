#include "net/wire.hpp"

#include <array>

namespace aesip::net {

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kHello: return "hello";
    case Op::kSetKey: return "set_key";
    case Op::kRekey: return "rekey";
    case Op::kEncBlocks: return "enc_blocks";
    case Op::kDecBlocks: return "dec_blocks";
    case Op::kCtrStream: return "ctr_stream";
    case Op::kStats: return "stats";
    case Op::kDrain: return "drain";
    case Op::kBye: return "bye";
    case Op::kAdminStatus: return "admin_fleet_status";
    case Op::kAdminSwapEngine: return "admin_swap_engine";
    case Op::kAdminQuarantine: return "admin_quarantine";
    case Op::kAdminInject: return "admin_inject";
    case Op::kGossip: return "gossip";
    case Op::kHelloOk: return "hello_ok";
    case Op::kKeyOk: return "key_ok";
    case Op::kResult: return "result";
    case Op::kStatsOk: return "stats_ok";
    case Op::kDrainOk: return "drain_ok";
    case Op::kByeOk: return "bye_ok";
    case Op::kAdminStatusOk: return "admin_status_ok";
    case Op::kAdminOk: return "admin_ok";
    case Op::kRedirect: return "redirect";
    case Op::kGossipOk: return "gossip_ok";
    case Op::kError: return "error";
  }
  return "?";
}

bool is_request_op(Op op) noexcept {
  switch (op) {
    case Op::kHello:
    case Op::kSetKey:
    case Op::kRekey:
    case Op::kEncBlocks:
    case Op::kDecBlocks:
    case Op::kCtrStream:
    case Op::kStats:
    case Op::kDrain:
    case Op::kBye:
    case Op::kAdminStatus:
    case Op::kAdminSwapEngine:
    case Op::kAdminQuarantine:
    case Op::kAdminInject:
    case Op::kGossip:
      return true;
    default:
      return false;
  }
}

const char* error_code_name(ErrorCode c) noexcept {
  switch (c) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kBadMagic: return "bad_magic";
    case ErrorCode::kBadVersion: return "bad_version";
    case ErrorCode::kBadCrc: return "bad_crc";
    case ErrorCode::kOversized: return "oversized";
    case ErrorCode::kUnknownOpcode: return "unknown_opcode";
    case ErrorCode::kBadPayload: return "bad_payload";
    case ErrorCode::kNoKey: return "no_key";
    case ErrorCode::kNotHello: return "not_hello";
    case ErrorCode::kWindowExceeded: return "window_exceeded";
    case ErrorCode::kDraining: return "draining";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kAdminDisabled: return "admin_disabled";
    case ErrorCode::kBadWorker: return "bad_worker";
    case ErrorCode::kConnectFailed: return "connect_failed";
    case ErrorCode::kNotClustered: return "not_clustered";
  }
  return "?";
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (const std::uint8_t b : data) c = table[(c ^ b) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::vector<std::uint8_t> encode_frame(const Frame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + f.payload.size() + kTrailerSize);
  put_u32(out, kWireMagic);
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(f.op));
  put_u16(out, f.flags);
  const std::uint64_t sid = f.session_id;
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(sid >> (8 * i)));
  put_u32(out, f.seq);
  put_u32(out, static_cast<std::uint32_t>(f.payload.size()));
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  put_u32(out, crc32(out));
  return out;
}

FrameDecoder::Status FrameDecoder::next(Frame& out) {
  if (error_ != ErrorCode::kNone) return Status::kBad;
  if (buf_.size() < kHeaderSize) return Status::kNeedMore;

  // The deque is contiguous enough to index; copy the header to a flat
  // scratch so the integer getters (and the CRC) see plain spans.
  std::array<std::uint8_t, kHeaderSize> hdr;
  for (std::size_t i = 0; i < kHeaderSize; ++i) hdr[i] = buf_[i];

  if (get_u32(hdr, 0) != kWireMagic) {
    error_ = ErrorCode::kBadMagic;
    return Status::kBad;
  }
  if (hdr[4] != kWireVersion) {
    error_ = ErrorCode::kBadVersion;
    return Status::kBad;
  }
  const std::uint32_t payload_len = get_u32(hdr, 20);
  // Checked before the payload is buffered: an attacker-controlled length
  // field cannot make the decoder allocate unboundedly.
  if (payload_len > max_payload_) {
    error_ = ErrorCode::kOversized;
    return Status::kBad;
  }
  const std::size_t total = kHeaderSize + payload_len + kTrailerSize;
  if (buf_.size() < total) return Status::kNeedMore;

  std::vector<std::uint8_t> whole(total);
  for (std::size_t i = 0; i < total; ++i) whole[i] = buf_[i];
  const std::uint32_t want =
      get_u32(whole, kHeaderSize + payload_len);
  const std::uint32_t got =
      crc32(std::span<const std::uint8_t>(whole.data(), kHeaderSize + payload_len));
  if (want != got) {
    error_ = ErrorCode::kBadCrc;
    return Status::kBad;
  }

  out.op = static_cast<Op>(whole[5]);
  out.flags = get_u16(whole, 6);
  out.session_id = 0;
  for (int i = 0; i < 8; ++i)
    out.session_id |= static_cast<std::uint64_t>(whole[8 + static_cast<std::size_t>(i)])
                      << (8 * i);
  out.seq = get_u32(whole, 16);
  out.payload.assign(whole.begin() + kHeaderSize,
                     whole.begin() + static_cast<std::ptrdiff_t>(kHeaderSize + payload_len));
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(total));
  return Status::kFrame;
}

std::vector<std::uint8_t> encode_error_payload(ErrorCode code, std::string_view message) {
  std::vector<std::uint8_t> p;
  p.reserve(2 + message.size());
  put_u16(p, static_cast<std::uint16_t>(code));
  for (const char ch : message) p.push_back(static_cast<std::uint8_t>(ch));
  return p;
}

void decode_error_payload(std::span<const std::uint8_t> payload, ErrorCode& code,
                          std::string& message) {
  if (payload.size() < 2) {
    code = ErrorCode::kInternal;
    message.clear();
    return;
  }
  code = static_cast<ErrorCode>(get_u16(payload, 0));
  message.assign(payload.begin() + 2, payload.end());
}

}  // namespace aesip::net
