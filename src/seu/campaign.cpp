#include "seu/campaign.hpp"

#include <random>

#include "aes/cipher.hpp"
#include "core/gate_driver.hpp"

namespace aesip::seu {

const char* outcome_name(Outcome o) noexcept {
  switch (o) {
    case Outcome::kMasked:
      return "masked";
    case Outcome::kCorrupted:
      return "corrupted";
    case Outcome::kLatent:
      return "latent";
    case Outcome::kPersistent:
      return "persistent";
    case Outcome::kHang:
      return "hang";
  }
  return "?";
}

CampaignStats run_campaign(const netlist::Netlist& ip_netlist, int runs, std::uint32_t seed) {
  std::mt19937 rng(seed);
  CampaignStats stats;

  for (int run = 0; run < runs; ++run) {
    std::array<std::uint8_t, 16> key{}, block{}, check{};
    for (auto& b : key) b = static_cast<std::uint8_t>(rng());
    for (auto& b : block) b = static_cast<std::uint8_t>(rng());
    for (auto& b : check) b = static_cast<std::uint8_t>(rng());
    aes::Aes128 ref(key);
    std::array<std::uint8_t, 16> golden{}, golden_check{};
    ref.encrypt_block(block, golden);
    ref.encrypt_block(check, golden_check);

    core::GateDriver<netlist::Evaluator> drv(ip_netlist);
    drv.reset();
    drv.load_key(key, /*needs_setup=*/false);

    // Start the block, flip one register at a random point of the
    // 50-cycle computation.
    const int inject_cycle = static_cast<int>(rng() % 50);
    const std::size_t dff =
        static_cast<std::size_t>(rng() % drv.evaluator().dff_count());

    drv.set_din(block);
    drv.set("wr_data", true);
    drv.clock();  // load edge
    drv.set("wr_data", false);

    Outcome outcome = Outcome::kHang;
    bool got_result = false;
    std::array<std::uint8_t, 16> result{};
    for (int cycle = 1; cycle <= 200; ++cycle) {
      if (cycle - 1 == inject_cycle) drv.evaluator().flip_dff(dff);
      drv.clock();
      if (drv.data_ok()) {
        result = drv.read_dout();
        got_result = true;
        break;
      }
    }

    if (got_result) {
      // Always run a follow-up block: upsets in standby state (e.g. the
      // Key_In register) leave the hit block intact but poison later ones.
      const auto next = drv.process(check, /*encrypt=*/true);
      const bool hit_ok = result == golden;
      const bool next_ok = next && next->data == golden_check;
      if (!next) outcome = Outcome::kHang;
      else if (hit_ok && next_ok) outcome = Outcome::kMasked;
      else if (hit_ok) outcome = Outcome::kLatent;
      else if (next_ok) outcome = Outcome::kCorrupted;
      else outcome = Outcome::kPersistent;
    }

    switch (outcome) {
      case Outcome::kMasked:
        ++stats.masked;
        break;
      case Outcome::kCorrupted:
        ++stats.corrupted;
        break;
      case Outcome::kLatent:
        ++stats.latent;
        break;
      case Outcome::kPersistent:
        ++stats.persistent;
        break;
      case Outcome::kHang:
        ++stats.hang;
        break;
    }
    stats.injections.push_back(Injection{dff, inject_cycle, outcome});
  }
  return stats;
}

}  // namespace aesip::seu
