#include "workload.hpp"

#include <random>
#include <stdexcept>

#include "aes/cipher.hpp"
#include "aes/modes.hpp"

namespace perfbench {
namespace {

using aesip::engine::EngineKind;

constexpr std::size_t kSessions = 4;

/// splitmix64: decorrelates (seed, workload, session) into one RNG seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  return h;
}

/// Draws built only from raw mt19937_64 output (the distributions in
/// <random> are implementation-defined; this stays identical everywhere).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : g_(seed) {}
  std::uint64_t below(std::uint64_t n) { return g_() % n; }
  std::size_t range(std::size_t lo, std::size_t hi) { return lo + below(hi - lo + 1); }
  bool coin() { return (g_() >> 63) != 0; }
  void fill(std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(g_() >> 56);
  }
  std::vector<std::uint8_t> bytes(std::size_t n) {
    std::vector<std::uint8_t> v(n);
    fill(v.data(), n);
    return v;
  }

 private:
  std::mt19937_64 g_;
};

/// Script builder: tracks the session's current key so each data step's
/// expected bytes come from the key the server will use for it.  Keys come
/// from `keys`, IVs and payloads from `bytes`; the script functions draw
/// kinds, modes and sizes from `shape`, which does not depend on the seed.
class Builder {
 public:
  Builder(Rng& shape, Rng& keys, Rng& bytes) : shape(shape), keys_(keys), rng_(bytes) {}

  void set_key(std::size_t key_bytes) {
    Step s;
    s.kind = StepKind::kSetKey;
    s.key = keys_.bytes(key_bytes);
    ref_.emplace(aesip::aes::Rijndael::for_key(s.key));
    script_.steps.push_back(std::move(s));
  }

  void blocks(StepKind kind, bool cbc, std::size_t n) {
    Step s;
    s.kind = kind;
    s.cbc = cbc;
    rng_.fill(s.iv.data(), s.iv.size());
    s.data = rng_.bytes(n * 16);
    const std::span<const std::uint8_t, 16> iv(s.iv);
    namespace aes = aesip::aes;
    if (kind == StepKind::kCtr)
      s.expected = aes::ctr_crypt(*ref_, iv, s.data);
    else if (kind == StepKind::kEnc)
      s.expected = cbc ? aes::cbc_encrypt(*ref_, iv, s.data) : aes::ecb_encrypt(*ref_, s.data);
    else
      s.expected = cbc ? aes::cbc_decrypt(*ref_, iv, s.data) : aes::ecb_decrypt(*ref_, s.data);
    script_.steps.push_back(std::move(s));
  }

  Script take() { return std::move(script_); }

  Rng& shape;

 private:
  Rng& keys_;
  Rng& rng_;
  std::optional<aesip::aes::Rijndael> ref_;
  Script script_;
};

StepKind enc_or_dec(Rng& rng) { return rng.coin() ? StepKind::kEnc : StepKind::kDec; }

// frames-sw: one hot AES-128 key; 1-block ECB/CBC frames in both directions.
void frames_sw(Builder& b, std::size_t) {
  b.set_key(16);
  for (int i = 0; i < 8192; ++i) b.blocks(enc_or_dec(b.shape), b.shape.coin(), 1);
}

// bulk-netlist: frames exactly one batch pass wide, ECB encrypt alternating
// with CBC decrypt (both run on the netlist batch path).
void bulk_netlist(Builder& b, std::size_t lanes) {
  b.set_key(16);
  for (int i = 0; i < 16; ++i)
    b.blocks(i % 2 ? StepKind::kDec : StepKind::kEnc, /*cbc=*/i % 2 != 0, lanes);
}

// frames-netlist: 1..4-block ECB frames, one key, both directions.
void frames_netlist(Builder& b, std::size_t) {
  b.set_key(16);
  for (int i = 0; i < 16; ++i) b.blocks(enc_or_dec(b.shape), false, b.shape.range(1, 4));
}

// churn-behavioral: the session cycles AES-128/192/256 keys, rekeying every
// 3..6 frames; 1..8-block CBC frames with every 8th frame a 128-block CTR
// stream big enough to fan out across the farm's workers.
void churn_behavioral(Builder& b, std::size_t) {
  static constexpr std::size_t kKeyBytes[] = {16, 24, 32};
  std::size_t key_index = 0;
  b.set_key(kKeyBytes[key_index]);
  std::size_t until_rekey = b.shape.range(3, 6);
  for (int i = 0; i < 256; ++i) {
    if (until_rekey-- == 0) {
      key_index = (key_index + 1) % 3;
      b.set_key(kKeyBytes[key_index]);
      until_rekey = b.shape.range(3, 6) - 1;
    }
    if (i % 8 == 7)
      b.blocks(StepKind::kCtr, false, 128);
    else
      b.blocks(enc_or_dec(b.shape), true, b.shape.range(1, 8));
  }
}

struct Spec {
  const char* name;
  EngineKind engine;
  double spot_check;
  /// Frames in flight per session: the lowest depth at which the depth
  /// sweep (sweep_depth.py, results in README.md) reaches 90% of its best
  /// blocks_per_s.  Deeper only adds queue wait to the latency.
  std::size_t depth;
  /// Sessions s and s + key_groups draw the same keys.  The netlist
  /// workloads use one key per farm worker, so every key stays resident and
  /// they measure pass cost, not key churn (churn-behavioral's subject).
  std::size_t key_groups;
  void (*script)(Builder&, std::size_t);
};

constexpr Spec kSpecs[] = {
    {"frames-sw", EngineKind::kSoftware, 0.0, 32, 4, frames_sw},
    {"bulk-netlist", EngineKind::kNetlist, 0.0, 1, 2, bulk_netlist},
    {"frames-netlist", EngineKind::kNetlist, 0.0, 1, 2, frames_netlist},
    {"churn-behavioral", EngineKind::kBehavioral, 0.05, 16, 4, churn_behavioral},
};

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, std::size_t lanes) {
  for (std::size_t w = 0; w < std::size(kSpecs); ++w) {
    const Spec& spec = kSpecs[w];
    if (name != spec.name) continue;
    Workload wl;
    wl.name = spec.name;
    wl.seed = seed;
    wl.engine = spec.engine;
    wl.spot_check = spec.spot_check;
    wl.depth = spec.depth;
    for (std::size_t s = 0; s < kSessions; ++s) {
      Rng shape(mix((w << 8) ^ s));
      Rng keys(mix(mix(seed) ^ (w << 8) ^ (s % spec.key_groups) ^ 0x100000));
      Rng bytes(mix(mix(seed) ^ (w << 8) ^ s));
      Builder b(shape, keys, bytes);
      spec.script(b, lanes);
      wl.sessions.push_back(b.take());
    }
    return wl;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

InputDigest digest(const Workload& wl) {
  InputDigest d;
  d.bytes = d.shape = 0xcbf29ce484222325ull;
  for (const auto& sc : wl.sessions) {
    for (const auto& s : sc.steps) {
      const std::uint8_t kind[2] = {static_cast<std::uint8_t>(s.kind), s.cbc};
      const std::uint64_t sizes[2] = {s.key.size(), s.data.size()};
      d.shape = fnv(fnv(d.shape, kind, sizeof kind), sizes, sizeof sizes);
      d.bytes = fnv(d.bytes, s.key.data(), s.key.size());
      d.bytes = fnv(d.bytes, s.iv.data(), s.iv.size());
      d.bytes = fnv(d.bytes, s.data.data(), s.data.size());
      ++d.steps;
      d.blocks += s.blocks();
    }
  }
  return d;
}

}  // namespace perfbench
