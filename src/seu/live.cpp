#include "seu/live.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "aes/cipher.hpp"
#include "core/gate_driver.hpp"

namespace aesip::seu {

const char* standby_effect_name(StandbyEffect e) noexcept {
  switch (e) {
    case StandbyEffect::kMasked:
      return "masked";
    case StandbyEffect::kCorrupting:
      return "corrupting";
    case StandbyEffect::kHang:
      return "hang";
  }
  return "?";
}

StandbyEffect classify_standby_upset(const netlist::Netlist& ip_netlist, std::size_t dff,
                                     const std::array<std::uint8_t, 16>& key,
                                     const std::array<std::uint8_t, 16>& block) {
  aes::Aes128 ref(key);
  std::array<std::uint8_t, 16> golden{};
  ref.encrypt_block(block, golden);

  core::GateDriver<netlist::Evaluator> drv(ip_netlist);
  drv.reset();
  // Decrypt-capable netlists expose encdec and need the 40-cycle setup pass
  // (same rule NetlistEngine applies).
  drv.load_key(key, /*needs_setup=*/drv.has_input("encdec"));

  // The upset: flip the register while the core idles between blocks.
  drv.evaluator().flip_dff(dff);

  // Two follow-up blocks: the first catches upsets in state read at block
  // start, the second catches ones that only surface after a full block
  // cycled through (e.g. half-rewritten round state).
  for (int i = 0; i < 2; ++i) {
    const auto r = drv.process(block, /*encrypt=*/true);
    if (!r) return StandbyEffect::kHang;
    if (r->data != golden) return StandbyEffect::kCorrupting;
  }
  return StandbyEffect::kMasked;
}

std::vector<std::size_t> find_standby_sites(const netlist::Netlist& ip_netlist,
                                            StandbyEffect effect, std::size_t count,
                                            std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::array<std::uint8_t, 16> key{}, block{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  for (auto& b : block) b = static_cast<std::uint8_t>(rng());

  const std::size_t n_dffs = ip_netlist.stats().dffs;
  std::vector<std::size_t> order(n_dffs);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<std::size_t> sites;
  for (const std::size_t dff : order) {
    if (sites.size() >= count) break;
    if (classify_standby_upset(ip_netlist, dff, key, block) == effect) sites.push_back(dff);
  }
  return sites;
}

}  // namespace aesip::seu
