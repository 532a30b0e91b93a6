// Tracing decorators for the traced run, built only from public interfaces.
//
//  * TracedTransport wraps a net::Transport.  Every Conn it hands out
//    (accepted: server side, connected: client side) counts read_some /
//    write_some calls and bytes and times them and the wait_* calls; the
//    Listener's wait is timed too.  It can also drop the k-th result frame
//    on the client's read path (the fault the oracle must catch).
//  * TracedEngine wraps the real engines behind FarmConfig::engine_factory.
//    Custom factories are key-size-blind, so it keeps one inner engine per
//    key size.  It times process_batch / process_block / load_key / rekey,
//    reads batch_stats(), cycles() and last_latency(), and checks the
//    paper's cycle contract (Table 2): a block takes 5*Nr cycles and a
//    decrypt-capable key setup takes 4*Nr.  It can flip one output byte
//    (the other fault the oracle must catch) and misreport one key setup
//    (the fault the contract check must catch).
//
// Counters are relaxed atomics written by their owning thread and summed
// by the harness at window boundaries.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/engine.hpp"
#include "net/transport.hpp"

namespace perfbench {

using Counter = std::atomic<std::uint64_t>;

inline void bump(Counter& c, std::uint64_t v = 1) { c.fetch_add(v, std::memory_order_relaxed); }
inline std::uint64_t read(const Counter& c) { return c.load(std::memory_order_relaxed); }

/// One side's transport totals (plain values; a - b gives a window delta).
struct IoTotals {
  std::uint64_t calls = 0, bytes = 0, read_ns = 0, write_ns = 0, wait_ns = 0;
  IoTotals operator-(const IoTotals& o) const {
    return {calls - o.calls, bytes - o.bytes, read_ns - o.read_ns, write_ns - o.write_ns,
            wait_ns - o.wait_ns};
  }
};

struct IoLedger {
  Counter calls{0}, bytes{0}, read_ns{0}, write_ns{0}, wait_ns{0};
  IoTotals totals() const {
    return {read(calls), read(bytes), read(read_ns), read(write_ns), read(wait_ns)};
  }
};

/// One-shot faults for the self-tests, counted across every set-up of a
/// run: each countdown fires when it reaches 0 and never again (0 = off).
struct Faults {
  std::atomic<std::uint64_t> flip_call{0};    ///< flip byte 0 of this engine call's output
  std::atomic<std::uint64_t> drop_result{0};  ///< drop this kResult frame on its way to a client
  std::atomic<std::uint64_t> skew_setup{0};   ///< report this key setup one cycle long
};

class TracedTransport final : public aesip::net::Transport {
 public:
  TracedTransport(std::unique_ptr<aesip::net::Transport> inner, Faults& faults);

  std::unique_ptr<aesip::net::Listener> listen(const std::string& address) override;
  std::unique_ptr<aesip::net::Conn> connect(const std::string& address) override;
  const char* name() const noexcept override { return inner_->name(); }

  IoLedger client, server;

 private:
  std::unique_ptr<aesip::net::Transport> inner_;
  Faults& faults_;
};

/// Sums over every TracedEngine alive in the registry (window deltas by -).
struct EngineTotals {
  std::uint64_t calls = 0, blocks = 0, passes = 0, lane_slots = 0, work_ns = 0;
  std::uint64_t loads = 0, load_ns = 0, cycles = 0;  ///< cycles: block work only
  std::uint64_t latency_sum = 0, latency_n = 0, violations = 0;
  EngineTotals operator-(const EngineTotals& o) const;
  EngineTotals& operator+=(const EngineTotals& o);
};

struct EngineLedger {
  Counter calls{0}, blocks{0}, passes{0}, lane_slots{0}, work_ns{0};
  Counter loads{0}, load_ns{0}, cycles{0};
  Counter latency_sum{0}, latency_n{0}, violations{0};
  EngineTotals totals() const;
};

/// Shared state of one traced farm: the registry of engine ledgers, the
/// shared netlists, and the byte-flip fault.
class EngineHub {
 public:
  EngineHub(aesip::engine::EngineKind kind, Faults& faults);

  /// Synthesize (once) the shared netlist for `key_bits`.
  std::shared_ptr<const aesip::netlist::Netlist> netlist(int key_bits);
  /// Factory for FarmConfig::engine_factory.
  std::unique_ptr<aesip::engine::CipherEngine> make_engine();

  EngineTotals totals() const;
  aesip::engine::EngineKind kind() const noexcept { return kind_; }
  Faults& faults() noexcept { return faults_; }

 private:
  aesip::engine::EngineKind kind_;
  Faults& faults_;
  mutable std::mutex mu_;
  std::map<int, std::shared_ptr<const aesip::netlist::Netlist>> netlists_;
  std::vector<std::shared_ptr<EngineLedger>> ledgers_;
};

}  // namespace perfbench
