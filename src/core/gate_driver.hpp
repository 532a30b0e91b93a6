// Gate-level bus driver: runs the Table 1 protocol against a synthesized
// IP netlist (pre- or post-mapping) through a netlist evaluator.
//
// The gate-level twin of core::BusDriver, written once over both
// evaluators:
//
//   * GateDriver<netlist::Evaluator> — the scalar oracle, one lane.  The
//     conformance tests, the SEU fault-injection campaigns, the power runs
//     and the Pareto bench drive it; all of them need to poke a *netlist*,
//     not the RTL model.
//   * GateDriver<netlist::BatchEvaluator> — lanes() independent blocks per
//     pass, one per lane (64 on the portable uint64 backend, up to 512 on
//     AVX-512; see netlist/batch_backend.hpp for the runtime dispatch).
//     NetlistEngine runs on it.
//
// Control inputs (setup/wr_*/encdec) are driven to the same value in every
// lane, so the FSM state is identical across lanes and data_ok is sampled
// from lane 0.  The din/dout buses carry per-lane block data (the lane
// packing transpose lives in set_din / read_dout).
//
// Cycle accounting: each simulated clock during a process() pass advances
// cycles() by the number of ACTIVE lanes, so a sequence of 1-lane passes
// reports exactly the cycle totals the behavioral model would — cycles()
// stays "simulated device cycles of useful work", independent of how wide
// the evaluation ran.  Reset and key-load clocks are device-global (one
// shared key schedule) and count once.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "netlist/batch_eval.hpp"
#include "netlist/eval.hpp"
#include "netlist/netlist.hpp"

namespace aesip::core {

template <class Ev>
class GateDriver {
 public:
  static constexpr bool kScalar = std::is_same_v<Ev, netlist::Evaluator>;

  /// Binds to a synthesized IP netlist (must expose the Table 1 ports).
  /// The netlist must outlive the driver.
  explicit GateDriver(const netlist::Netlist& nl) : ev_(nl) { bind(nl); }
  /// Batch only: `backend` forces a batch backend; the default
  /// auto-detects the widest one.
  GateDriver(const netlist::Netlist& nl, std::optional<netlist::BatchBackend> backend)
    requires(!kScalar)
      : ev_(nl, backend) {
    bind(nl);
  }

  /// Blocks per pass: 1 on the scalar evaluator, else the resolved
  /// backend's lane count.
  std::size_t lanes() const noexcept {
    if constexpr (kScalar)
      return 1;
    else
      return ev_.lanes();
  }

  // --- raw port access -------------------------------------------------------
  netlist::NetId input(const std::string& name) const { return by_name_.at(name); }
  bool has_input(const std::string& name) const { return by_name_.count(name) != 0; }
  /// Drive a control input to the same value in every lane.
  void set(const std::string& name, bool v) { drive(input(name), v); }
  /// Pack `n` (<= lanes()) 16-byte blocks onto din, in[16*L..16*L+15] =
  /// lane L; inactive lanes replicate lane 0 so every lane clocks real data.
  void set_din(std::span<const std::uint8_t> in, std::size_t n = 1);
  /// Unpack `n` lanes of dout into 16-byte blocks.
  void read_dout(std::span<std::uint8_t> out, std::size_t n = 1) const;
  /// Lane 0 of dout.
  std::array<std::uint8_t, 16> read_dout() const {
    std::array<std::uint8_t, 16> out{};
    read_dout(out);
    return out;
  }
  bool data_ok() const {
    if (data_ok_ == netlist::kNoNet)
      throw std::out_of_range("GateDriver: netlist has no data_ok output");
    if constexpr (kScalar)
      return ev_.get(data_ok_);
    else
      return ev_.get(data_ok_, 0);
  }

  /// One clock edge in every lane: settles first only when an input changed
  /// since the last edge (the evaluator is stale()), so an edge costs one
  /// settle.  `weight` is the number of device cycles it represents (=
  /// active lanes).
  void clock(std::uint64_t weight = 1) {
    if (ev_.stale()) ev_.settle();
    ev_.clock();
    cycles_ += weight;
  }
  std::uint64_t cycles() const noexcept { return cycles_; }

  /// Direct evaluator access (fault injection, activity and lane probes,
  /// tape stats).
  Ev& evaluator() noexcept { return ev_; }
  const Ev& evaluator() const noexcept { return ev_; }

  // --- protocol helpers --------------------------------------------------------
  /// Pulse `setup` for one cycle (device-global: weight 1 per clock).
  void reset();
  /// Write a key to every lane (16/24/32 bytes, multi-beat when wider than
  /// din); runs the 4*Nr extra key-setup cycles when `needs_setup`.
  void load_key(std::span<const std::uint8_t> key, bool needs_setup);
  /// Write a key and run an explicit number of key-setup clocks (the
  /// variant family declares its own schedule — 10 expansion cycles for
  /// the stored-key cores, 40 for the paper's inverse-schedule pass).
  void load_key(std::span<const std::uint8_t> key, int setup_cycles);

  struct PassResult {
    int cycles;  ///< per-lane latency, load edge -> data_ok (same in every lane)
  };
  /// Process `n` (1..lanes()) blocks in one pass, one per lane: `in` holds
  /// 16*n input bytes, `out` receives 16*n result bytes.  nullopt if
  /// data_ok never rises (watchdog), which a fault-injection campaign
  /// classifies as a hang.
  std::optional<PassResult> process(std::span<const std::uint8_t> in,
                                    std::span<std::uint8_t> out, std::size_t n, bool encrypt,
                                    int watchdog_cycles = 200);

  struct BlockResult {
    std::array<std::uint8_t, 16> data;
    int cycles;  ///< load edge -> data_ok
  };
  /// Process one block as a 1-lane pass.
  std::optional<BlockResult> process(std::span<const std::uint8_t> block, bool encrypt,
                                     int watchdog_cycles = 200);

  struct StreamResult {
    int cycles;  ///< first load edge -> last data_ok
  };
  /// Scalar only: stream blocks back to back through one device, keeping
  /// the Data_In register fed — the throughput measurement for cores with
  /// multiple blocks in flight.  Uses the `in_ready` admission output when
  /// the netlist has one (the variant family); otherwise feeds a new block
  /// the cycle after each admission slot frees (writes may lead completions
  /// by at most one — the paper core's single pending register).  `out`
  /// gets 16 bytes per input block; nullopt on watchdog.
  std::optional<StreamResult> stream(std::span<const std::uint8_t> in,
                                     std::span<std::uint8_t> out, std::size_t blocks,
                                     bool encrypt, int watchdog_cycles = 200)
    requires kScalar;

 private:
  /// Port binding plus the idle control levels; shared by both constructors.
  void bind(const netlist::Netlist& nl);
  void drive(netlist::NetId n, bool v) {
    if constexpr (kScalar)
      ev_.set(n, v);
    else
      ev_.broadcast(n, v);
  }

  Ev ev_;
  std::map<std::string, netlist::NetId> by_name_;
  std::map<std::string, netlist::NetId> out_by_name_;
  netlist::Bus din_;
  netlist::Bus dout_;
  netlist::NetId setup_ = netlist::kNoNet;
  netlist::NetId wr_key_ = netlist::kNoNet;
  netlist::NetId wr_data_ = netlist::kNoNet;
  netlist::NetId encdec_ = netlist::kNoNet;  ///< absent on single-direction cores
  netlist::NetId data_ok_ = netlist::kNoNet;  ///< absent on bare register test benches
  std::uint64_t cycles_ = 0;
};

extern template class GateDriver<netlist::Evaluator>;
extern template class GateDriver<netlist::BatchEvaluator>;

}  // namespace aesip::core
