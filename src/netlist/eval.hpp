// Netlist evaluator: functional simulation of a gate-level netlist.
//
// Used to prove every synthesis generator correct — a synthesized block is
// evaluated against the reference library over randomized sweeps before its
// LC count or timing is believed.  Combinational cells (gates, LUTs, async
// ROM macros) are levelized once; DFFs are state elements advanced by
// clock().  A combinational cycle is rejected at construction.  Every write
// (set, set_bus, flip_dff, reset) marks the nets stale until the next
// settle() or clock(), so a driver can skip the pre-edge settle when no
// input changed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace aesip::netlist {

class Evaluator {
 public:
  explicit Evaluator(const Netlist& nl);

  void set(NetId n, bool v) {
    values_[n] = v ? 1 : 0;
    stale_ = true;
  }
  bool get(NetId n) const { return values_[n] != 0; }

  /// Drive a bus (bit 0 = LSB) from an integer.
  void set_bus(const Bus& b, std::uint64_t value);
  std::uint64_t get_bus(const Bus& b) const;

  /// Propagate through all combinational cells (call after changing inputs).
  void settle();

  /// Rising clock edge: every DFF whose enable is true (or absent) samples
  /// its D input; then the network settles.  D is read as it stands: settle
  /// first if stale().
  void clock();

  /// Clear all flip-flop state to zero.
  void reset();

  /// True when a write since the last settle()/clock() may have left a net
  /// disagreeing with its inputs.
  bool stale() const noexcept { return stale_; }

  // --- fault injection (SEU emulation) ---------------------------------------
  /// Number of flip-flops (injection sites).
  std::size_t dff_count() const noexcept { return dff_cells_.size(); }
  /// Invert the stored state of flip-flop `index` — a single-event upset.
  /// It propagates combinationally at the next settle(); a driver's next
  /// clock() settles the stale evaluator first.
  void flip_dff(std::size_t index);

  /// Read-only view of every net's current value (activity probes for the
  /// power estimator; index = NetId).
  std::span<const std::uint8_t> net_values() const noexcept {
    return std::span<const std::uint8_t>(values_.data(), values_.size());
  }

 private:
  const Netlist& nl_;
  std::vector<std::uint8_t> values_;         // one per net
  std::vector<std::size_t> comb_order_;      // cell indices, topological
  std::vector<std::size_t> rom_position_;    // interleave ROMs in the order
  struct Step {
    bool is_rom;
    std::size_t index;  // cell index or rom index
  };
  std::vector<Step> order_;
  std::vector<std::size_t> dff_cells_;
  std::vector<std::uint8_t> dff_state_;
  bool stale_ = true;
};

}  // namespace aesip::netlist
