// Composite-field GF((2^4)^2) machinery: GF(16) arithmetic, the tower
// isomorphism (derived, not transcribed), and the gate-level composite
// S-box — exhaustively checked against the table S-box, mapped, and
// compared with the Shannon network it undercuts.
#include <gtest/gtest.h>

#include "aes/sbox.hpp"
#include "bdd/netlist_bdd.hpp"
#include "core/gate_driver.hpp"
#include "core/ip_synth.hpp"
#include "gf/composite.hpp"
#include "gf/gf256.hpp"
#include "netlist/eval.hpp"
#include "netlist/netlist.hpp"
#include "netlist/synth.hpp"
#include "sta/sta.hpp"
#include "techmap/techmap.hpp"

namespace aes = aesip::aes;
namespace gf = aesip::gf;
namespace nlist = aesip::netlist;
namespace txm = aesip::techmap;
using nlist::Bus;
using nlist::Netlist;

// --- GF(16) ------------------------------------------------------------------------

TEST(Gf16, FieldAxioms) {
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      const auto aa = static_cast<std::uint8_t>(a);
      const auto bb = static_cast<std::uint8_t>(b);
      EXPECT_EQ(gf::gf16::mul(aa, bb), gf::gf16::mul(bb, aa));
      EXPECT_LT(gf::gf16::mul(aa, bb), 16);
    }
    const auto aa = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf::gf16::mul(aa, 1), aa);
    if (a != 0) {
      EXPECT_EQ(gf::gf16::mul(aa, gf::gf16::inverse(aa)), 1) << a;
    }
  }
  EXPECT_EQ(gf::gf16::inverse(0), 0);
}

TEST(Gf16, ReductionPolynomial) {
  // y * y^3 = y^4 = y + 1 under y^4 + y + 1.
  EXPECT_EQ(gf::gf16::mul(0x2, 0x8), 0x3);
}

TEST(Gf16, SquareMatrixMatchesSquaring) {
  const auto m = gf::gf16::square_matrix();
  for (int a = 0; a < 16; ++a)
    EXPECT_EQ(m.apply(static_cast<std::uint8_t>(a)),
              gf::gf16::square(static_cast<std::uint8_t>(a)))
        << a;
}

TEST(Gf16, MulMatrixMatchesConstantMultiplication) {
  for (int c = 0; c < 16; ++c) {
    const auto m = gf::gf16::mul_matrix(static_cast<std::uint8_t>(c));
    for (int a = 0; a < 16; ++a)
      EXPECT_EQ(m.apply(static_cast<std::uint8_t>(a)),
                gf::gf16::mul(static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(a)))
          << c << "*" << a;
  }
}

// --- the tower ----------------------------------------------------------------------

TEST(Composite, LambdaMakesExtensionIrreducible) {
  const auto& cf = gf::composite_field();
  for (int t = 0; t < 16; ++t)
    EXPECT_NE(gf::gf16::square(static_cast<std::uint8_t>(t)) ^ t, cf.lambda())
        << "x^2+x+lambda must have no GF(16) root";
}

TEST(Composite, IsomorphismPreservesMultiplication) {
  const auto& cf = gf::composite_field();
  for (int a = 0; a < 256; a += 7)
    for (int b = 0; b < 256; b += 11) {
      const auto aa = static_cast<std::uint8_t>(a);
      const auto bb = static_cast<std::uint8_t>(b);
      EXPECT_EQ(cf.to_composite(gf::mul(aa, bb)),
                cf.mul(cf.to_composite(aa), cf.to_composite(bb)))
          << a << "*" << b;
    }
}

TEST(Composite, IsomorphismRoundTrips) {
  const auto& cf = gf::composite_field();
  for (int a = 0; a < 256; ++a) {
    const auto aa = static_cast<std::uint8_t>(a);
    EXPECT_EQ(cf.from_composite(cf.to_composite(aa)), aa);
  }
  EXPECT_EQ(cf.to_composite(0x01), 0x01) << "the isomorphism fixes 1";
}

TEST(Composite, TowerInverseMatchesFieldInverse) {
  const auto& cf = gf::composite_field();
  for (int a = 0; a < 256; ++a) {
    const auto aa = static_cast<std::uint8_t>(a);
    EXPECT_EQ(cf.from_composite(cf.inverse(cf.to_composite(aa))), gf::inverse(aa)) << a;
  }
}

// --- gate-level composite S-box --------------------------------------------------------

class CompositeSbox : public ::testing::TestWithParam<bool> {};

TEST_P(CompositeSbox, MatchesTableForAll256Inputs) {
  const bool inverse = GetParam();
  Netlist nl;
  const Bus addr = nl.add_input_bus("addr", 8);
  nl.add_output_bus(nlist::synth_sbox_composite(nl, addr, inverse), "s");
  nlist::Evaluator ev(nl);
  const auto& table = inverse ? aes::kInvSBox : aes::kSBox;
  for (int a = 0; a < 256; ++a) {
    ev.set_bus(addr, static_cast<std::uint64_t>(a));
    ev.settle();
    EXPECT_EQ(ev.get_bus(nl.outputs().empty() ? Bus{} : [&] {
      Bus out;
      for (const auto& po : nl.outputs()) out.push_back(po.net);
      return out;
    }()),
              table[static_cast<std::size_t>(a)])
        << (inverse ? "inv " : "fwd ") << a;
  }
}

INSTANTIATE_TEST_SUITE_P(Directions, CompositeSbox, ::testing::Bool(),
                         [](const auto& info) { return info.param ? "inverse" : "forward"; });

TEST(CompositeSboxArea, UndercutsShannonSubstantially) {
  Netlist shannon_nl, composite_nl;
  {
    const Bus addr = shannon_nl.add_input_bus("addr", 8);
    shannon_nl.add_output_bus(nlist::synth_sbox_logic(shannon_nl, aes::kSBox, addr), "s");
  }
  {
    const Bus addr = composite_nl.add_input_bus("addr", 8);
    composite_nl.add_output_bus(nlist::synth_sbox_composite(composite_nl, addr, false), "s");
  }
  const auto shannon = txm::map_to_luts(shannon_nl);
  const auto composite = txm::map_to_luts(composite_nl);
  EXPECT_LT(composite.stats.luts, shannon.stats.luts / 2)
      << "the tower-field S-box must cost less than half the Shannon network";
  EXPECT_GT(composite.stats.luts, 20u) << "but it is not magic";

  // The price is depth: more logic levels than the mux tree.
  constexpr aesip::sta::DelayModel kUnit{1.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  Netlist s2 = std::move(shannon_nl);
  // Levels via STA on mapped nets with outputs as endpoints.
  const auto rs = aesip::sta::analyze(shannon.mapped, kUnit);
  const auto rc = aesip::sta::analyze(composite.mapped, kUnit);
  EXPECT_GE(rc.logic_levels, rs.logic_levels)
      << "area win comes at equal or worse depth";
}

TEST(CompositeIp, FullEncryptIpWorksAtGateLevel) {
  // The whole IP with composite-field S-boxes still encrypts, cycle-exact.
  const Netlist ip =
      aesip::core::synthesize_ip(aesip::core::IpMode::kEncrypt, nlist::SboxStyle::kComposite);
  EXPECT_EQ(ip.stats().rom_bits, 0u);
  aesip::core::GateDriver<nlist::Evaluator> drv(ip);
  const std::array<std::uint8_t, 16> key{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                                         0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  const std::array<std::uint8_t, 16> pt{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                                        0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  drv.load_key(key, false);
  const auto res = drv.process(pt, true);
  ASSERT_TRUE(res.has_value());
  const std::array<std::uint8_t, 16> expected{0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                                              0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  EXPECT_EQ(res->data, expected);
  EXPECT_EQ(res->cycles, 50);
}

TEST(CompositeIp, ShrinksTheCycloneImplementation) {
  // The concrete optimization for the paper's Cyclone problem: the same IP
  // with composite instead of Shannon S-boxes costs far fewer LEs.
  const auto shannon = txm::map_to_luts(
      aesip::core::synthesize_ip(aesip::core::IpMode::kEncrypt, nlist::SboxStyle::kShannon));
  const auto composite = txm::map_to_luts(
      aesip::core::synthesize_ip(aesip::core::IpMode::kEncrypt, nlist::SboxStyle::kComposite));
  EXPECT_LT(composite.stats.logic_elements + 900, shannon.stats.logic_elements)
      << "8 S-boxes x >110 LUTs saved";
  // And the mapped composite IP is formally equivalent to its own source.
  const auto src =
      aesip::core::synthesize_ip(aesip::core::IpMode::kEncrypt, nlist::SboxStyle::kComposite);
  const auto r = aesip::bdd::prove_equivalent(src, txm::map_to_luts(src).mapped);
  EXPECT_TRUE(r.equivalent) << r.mismatch;
}

TEST(CompositeSboxArea, WouldShrinkTheCycloneIp) {
  // Quantify the optimization for the paper's Cyclone problem: 8 S-boxes
  // moved from Shannon (~248 LUTs) to composite (~N LUTs) on the
  // encrypt-only device.
  Netlist nl;
  const Bus addr = nl.add_input_bus("addr", 8);
  nl.add_output_bus(nlist::synth_sbox_composite(nl, addr, false), "s");
  const auto mapped = txm::map_to_luts(nl);
  const std::size_t per_sbox_saving = 248 - mapped.stats.luts;
  EXPECT_GT(per_sbox_saving * 8, 900u)
      << "8 composite S-boxes save over 900 LEs on the Cyclone encrypt IP";
}
