// Standby-upset classification: which flip-flops matter while the core is
// idle between blocks?
//
// The campaign machinery (campaign.hpp) injects *during* a block's 50-cycle
// computation. The farm's chaos hook (Farm::corrupting_site, see
// docs/farm.md#live-reconfiguration) instead flips state in a live engine
// *between* jobs — the standby scenario: the device sits keyed and idle, a
// particle hits, and the question is whether the next blocks come out
// wrong. Many DFFs are round-state that the next block's load overwrites
// (masked); upsets in the key register or the FSM one-hot walk corrupt
// every following block until re-key/reset.
//
// classify_standby_upset answers the question for one site by replaying it
// on a scratch scalar evaluator; find_standby_sites scans for sites with a
// wanted effect so chaos tests can choose *provably corrupting* injections
// (an injection the spot-check policy must then catch).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace aesip::seu {

/// What a standby (between-blocks) upset at one DFF does to later traffic.
enum class StandbyEffect : std::uint8_t {
  kMasked,      ///< subsequent blocks still correct (state is rewritten)
  kCorrupting,  ///< at least one of the next blocks comes out wrong
  kHang,        ///< data_ok never rises again (FSM knocked off its walk)
};

const char* standby_effect_name(StandbyEffect e) noexcept;

/// Classify the standby upset at `dff`: on a scratch evaluator over
/// `ip_netlist`, reset, load `key` (with key setup when the netlist is
/// decrypt-capable), flip the DFF while idle, then encrypt two blocks and
/// compare against the software reference. Deterministic.
StandbyEffect classify_standby_upset(const netlist::Netlist& ip_netlist, std::size_t dff,
                                     const std::array<std::uint8_t, 16>& key,
                                     const std::array<std::uint8_t, 16>& block);

/// Scan for up to `count` DFF sites whose standby upset has `effect`,
/// probing sites in a seed-shuffled order with a seed-derived key/block.
/// Returns fewer than `count` only when the whole netlist has fewer such
/// sites. Deterministic for a given seed.
std::vector<std::size_t> find_standby_sites(const netlist::Netlist& ip_netlist,
                                            StandbyEffect effect, std::size_t count,
                                            std::uint32_t seed);

}  // namespace aesip::seu
