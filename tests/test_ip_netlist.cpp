// The synthesized full-IP netlists: pin counts and memory bits exactly as
// in Table 2, logic-cost orderings the paper reports, and — the strongest
// check — gate-level sequential simulation of all three variants against
// the reference cipher, cycle-exact with the RTL model.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <random>
#include <string>

#include "aes/cipher.hpp"
#include "core/gate_driver.hpp"
#include "core/ip_synth.hpp"
#include "netlist/eval.hpp"
#include "techmap/techmap.hpp"

namespace core = aesip::core;
namespace nlist = aesip::netlist;
namespace txm = aesip::techmap;
namespace aes = aesip::aes;
using core::IpMode;
using nlist::Bus;
using nlist::Netlist;
using nlist::NetId;

namespace {

std::array<std::uint8_t, 16> random_block(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::array<std::uint8_t, 16> out{};
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

}  // namespace

// --- interface exactness (Table 2 pins / memory rows) -----------------------------

TEST(IpNetlist, PinCountsMatchTable2) {
  EXPECT_EQ(core::synthesize_ip(IpMode::kEncrypt, true).pin_count(), 261);
  EXPECT_EQ(core::synthesize_ip(IpMode::kDecrypt, true).pin_count(), 261);
  EXPECT_EQ(core::synthesize_ip(IpMode::kBoth, true).pin_count(), 262);
}

TEST(IpNetlist, RomBitsMatchTable2OnAcexFlavour) {
  EXPECT_EQ(core::synthesize_ip(IpMode::kEncrypt, true).stats().rom_bits, 16384u);
  EXPECT_EQ(core::synthesize_ip(IpMode::kDecrypt, true).stats().rom_bits, 16384u);
  EXPECT_EQ(core::synthesize_ip(IpMode::kBoth, true).stats().rom_bits, 32768u);
}

TEST(IpNetlist, NoMemoryOnCycloneFlavour) {
  EXPECT_EQ(core::synthesize_ip(IpMode::kEncrypt, false).stats().rom_bits, 0u);
  EXPECT_EQ(core::synthesize_ip(IpMode::kBoth, false).stats().rom_bits, 0u);
}

TEST(IpNetlist, LogicCostOrderingsMatchThePaper) {
  const auto enc = txm::map_to_luts(core::synthesize_ip(IpMode::kEncrypt, true));
  const auto dec = txm::map_to_luts(core::synthesize_ip(IpMode::kDecrypt, true));
  const auto both = txm::map_to_luts(core::synthesize_ip(IpMode::kBoth, true));
  // Paper Table 2 (Acex): 2114 < 2217 < 3222.
  EXPECT_LT(enc.stats.logic_elements, dec.stats.logic_elements);
  EXPECT_LT(dec.stats.logic_elements, both.stats.logic_elements);
  // Sharing: the combined device is far below the sum of the two.
  EXPECT_LT(both.stats.logic_elements,
            enc.stats.logic_elements + dec.stats.logic_elements);
}

TEST(IpNetlist, CycloneFlavourAddsRoughly240LesPerSbox) {
  const auto rom = txm::map_to_luts(core::synthesize_ip(IpMode::kEncrypt, true));
  const auto logic = txm::map_to_luts(core::synthesize_ip(IpMode::kEncrypt, false));
  const double delta =
      static_cast<double>(logic.stats.logic_elements - rom.stats.logic_elements) / 8.0;
  // Paper: (4057-2114)/8 = 243 LEs per S-box moved into logic.
  EXPECT_GT(delta, 150.0);
  EXPECT_LT(delta, 260.0);
}

// --- gate-level functional conformance ------------------------------------------------

TEST(IpNetlistFunctional, EncryptVariantPassesFips197) {
  const Netlist nl = core::synthesize_ip(IpMode::kEncrypt, true);
  core::GateDriver<nlist::Evaluator> drv(nl);
  const auto key = std::array<std::uint8_t, 16>{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                                                0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  const auto pt = std::array<std::uint8_t, 16>{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                                               0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  drv.load_key(key, false);
  const auto res = drv.process(pt, true);
  ASSERT_TRUE(res.has_value());
  const auto [ct, cycles] = *res;
  const std::array<std::uint8_t, 16> expected{0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                                              0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  EXPECT_EQ(ct, expected);
  EXPECT_EQ(cycles, 50) << "gate-level latency must match the RTL model";
}

TEST(IpNetlistFunctional, DecryptVariantInvertsReference) {
  const Netlist nl = core::synthesize_ip(IpMode::kDecrypt, true);
  core::GateDriver<nlist::Evaluator> drv(nl);
  const auto key = random_block(1);
  const auto pt = random_block(2);
  aes::Aes128 ref(key);
  std::array<std::uint8_t, 16> ct{};
  ref.encrypt_block(pt, ct);
  drv.load_key(key, true);
  const auto res = drv.process(ct, false);
  ASSERT_TRUE(res.has_value());
  const auto [back, cycles] = *res;
  EXPECT_EQ(back, pt);
  EXPECT_EQ(cycles, 50);
}

TEST(IpNetlistFunctional, BothVariantBothDirections) {
  const Netlist nl = core::synthesize_ip(IpMode::kBoth, true);
  core::GateDriver<nlist::Evaluator> drv(nl);
  const auto key = random_block(3);
  const auto pt = random_block(4);
  aes::Aes128 ref(key);
  std::array<std::uint8_t, 16> ct{};
  ref.encrypt_block(pt, ct);
  drv.load_key(key, true);
  const auto res1 = drv.process(pt, true);
  ASSERT_TRUE(res1.has_value());
  const auto [got_ct, c1] = *res1;
  EXPECT_EQ(got_ct, ct);
  EXPECT_EQ(c1, 50);
  const auto res2 = drv.process(ct, false);
  ASSERT_TRUE(res2.has_value());
  const auto [got_pt, c2] = *res2;
  EXPECT_EQ(got_pt, pt);
  EXPECT_EQ(c2, 50);
}

TEST(IpNetlistFunctional, LogicSboxFlavourAlsoWorks) {
  const Netlist nl = core::synthesize_ip(IpMode::kEncrypt, false);
  core::GateDriver<nlist::Evaluator> drv(nl);
  const auto key = random_block(5);
  const auto pt = random_block(6);
  aes::Aes128 ref(key);
  std::array<std::uint8_t, 16> expected{};
  ref.encrypt_block(pt, expected);
  drv.load_key(key, false);
  const auto res = drv.process(pt, true);
  ASSERT_TRUE(res.has_value());
  const auto [ct, cycles] = *res;
  EXPECT_EQ(ct, expected);
  EXPECT_EQ(cycles, 50);
}

TEST(IpNetlistFunctional, MappedEncryptNetlistStillEncrypts) {
  // The strongest flow check: synthesize -> technology-map -> simulate the
  // mapped LUT/FF netlist through the full protocol.
  const auto mapped = txm::map_to_luts(core::synthesize_ip(IpMode::kEncrypt, true));
  core::GateDriver<nlist::Evaluator> drv(mapped.mapped);
  const auto key = random_block(7);
  const auto pt = random_block(8);
  aes::Aes128 ref(key);
  std::array<std::uint8_t, 16> expected{};
  ref.encrypt_block(pt, expected);
  drv.load_key(key, false);
  const auto res = drv.process(pt, true);
  ASSERT_TRUE(res.has_value());
  const auto [ct, cycles] = *res;
  EXPECT_EQ(ct, expected);
  EXPECT_EQ(cycles, 50);
}

TEST(IpNetlistFunctional, BackToBackBlocksAtFullRate) {
  const Netlist nl = core::synthesize_ip(IpMode::kEncrypt, true);
  core::GateDriver<nlist::Evaluator> drv(nl);
  const auto key = random_block(9);
  drv.load_key(key, false);
  aes::Aes128 ref(key);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto pt = random_block(100 + i);
    std::array<std::uint8_t, 16> expected{};
    ref.encrypt_block(pt, expected);
    const auto res = drv.process(pt, true);
  ASSERT_TRUE(res.has_value());
  const auto [ct, cycles] = *res;
    EXPECT_EQ(ct, expected) << "block " << i;
    EXPECT_EQ(cycles, 50) << "block " << i;
  }
}
