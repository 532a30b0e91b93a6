// Seeded workload scripts for the wire-to-engine benchmark.
//
// A workload is one cyclic script per session (connection).  Each step is
// either a key install or one data frame; data steps carry the bytes the
// oracle expects back, computed up front with aes::Rijndael and the aes::
// mode helpers so that checking a response is a byte comparison off the
// timed path.  Everything derives from (workload name, seed) through
// std::mt19937_64, whose output sequence the standard fixes, so one seed
// gives byte-identical inputs on every run.  The seed drives only the bytes
// (keys, IVs, payloads); the shape (step kinds, modes, sizes, rekey points)
// is fixed per workload, so every seed measures the same work.  One lap of
// a script is the set-up's warm-up; script lengths are chosen so that a lap
// of all four sessions takes 0.1-0.2 s on a 4-vCPU host.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace perfbench {

enum class StepKind : std::uint8_t { kSetKey, kEnc, kDec, kCtr };

struct Step {
  StepKind kind = StepKind::kEnc;
  bool cbc = false;                    ///< ECB when false (kEnc/kDec only)
  std::array<std::uint8_t, 16> iv{};   ///< CBC IV or CTR initial counter
  std::vector<std::uint8_t> key;       ///< kSetKey: 16/24/32 bytes
  std::vector<std::uint8_t> data;      ///< request payload
  std::vector<std::uint8_t> expected;  ///< oracle response
  std::size_t blocks() const { return (data.size() + 15) / 16; }
};

/// One session's script; the runner walks it cyclically.  Step 0 is always
/// a kSetKey, so every lap starts from a known key.
struct Script {
  std::vector<Step> steps;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  aesip::engine::EngineKind engine = aesip::engine::EngineKind::kSoftware;
  double spot_check = 0.0;      ///< farm spot-check fraction
  std::size_t depth = 8;        ///< data frames each session keeps in flight
  std::vector<Script> sessions;
};

/// Build `name` for `seed`; throws std::invalid_argument on an unknown name.
/// `lanes` is the resolved netlist batch width (bulk frames match it).
Workload make_workload(const std::string& name, std::uint64_t seed, std::size_t lanes);

/// 64-bit FNV-1a digests of the generated inputs: `bytes` covers every key,
/// IV and payload byte; `shape` covers only step kinds, modes and sizes.
struct InputDigest {
  std::uint64_t bytes = 0;
  std::uint64_t shape = 0;
  std::size_t steps = 0;
  std::size_t blocks = 0;
};
InputDigest digest(const Workload& wl);

}  // namespace perfbench
