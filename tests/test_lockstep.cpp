// Lockstep cross-model verification: the cycle-accurate RTL model and the
// synthesized gate-level netlist are driven with identical stimulus and
// compared cycle by cycle — data_ok timing and dout contents must agree at
// every single edge, across random traffic with idle gaps, re-keying and
// direction changes.  This pins the two independent implementations of the
// architecture (hdl-level and gate-level) to each other, on top of each
// being pinned to FIPS-197.
#include <gtest/gtest.h>

#include <random>

#include "core/gate_driver.hpp"
#include "core/ip_synth.hpp"
#include "core/rijndael_ip.hpp"
#include "hdl/simulator.hpp"
#include "techmap/techmap.hpp"

namespace core = aesip::core;
namespace hdl = aesip::hdl;
using core::IpMode;

namespace {

/// Drives both models with one stimulus stream and compares observables.
class LockstepHarness {
 public:
  LockstepHarness(IpMode mode, bool mapped)
      : netlist_(mapped
                     ? aesip::techmap::map_to_luts(core::synthesize_ip(mode, true)).mapped
                     : core::synthesize_ip(mode, true)),
        rtl_(sim_, mode),
        gate_(netlist_) {
    rtl_.setup.write(false);
    rtl_.wr_data.write(false);
    rtl_.wr_key.write(false);
  }

  struct Stimulus {
    bool setup = false;
    bool wr_data = false;
    bool wr_key = false;
    bool encdec = true;
    hdl::Word128 din;
  };

  /// Apply one cycle of stimulus to both models; EXPECT observables equal.
  void step(const Stimulus& s) {
    rtl_.setup.write(s.setup);
    rtl_.wr_data.write(s.wr_data);
    rtl_.wr_key.write(s.wr_key);
    rtl_.encdec.write(s.encdec);
    rtl_.din.write(s.din);
    sim_.step();

    gate_.set("setup", s.setup);
    gate_.set("wr_data", s.wr_data);
    gate_.set("wr_key", s.wr_key);
    if (gate_.has_input("encdec")) gate_.set("encdec", s.encdec);
    std::array<std::uint8_t, 16> din_bytes{};
    s.din.store(din_bytes);
    gate_.set_din(din_bytes);
    gate_.clock();

    ++cycle_;
    ASSERT_EQ(rtl_.data_ok.read(), gate_.data_ok()) << "data_ok diverged at cycle " << cycle_;
    if (rtl_.data_ok.read()) {
      std::array<std::uint8_t, 16> rtl_out{};
      rtl_.dout.read().store(rtl_out);
      ASSERT_EQ(rtl_out, gate_.read_dout()) << "dout diverged at cycle " << cycle_;
    }
  }

 private:
  hdl::Simulator sim_;
  aesip::netlist::Netlist netlist_;
  core::RijndaelIp rtl_;
  core::GateDriver<aesip::netlist::Evaluator> gate_;
  std::uint64_t cycle_ = 0;
};

hdl::Word128 random_word(std::mt19937& rng) {
  hdl::Word128 w;
  for (auto& b : w.b) b = static_cast<std::uint8_t>(rng());
  return w;
}

void run_random_traffic(IpMode mode, bool mapped, std::uint32_t seed, int cycles) {
  LockstepHarness h(mode, mapped);
  std::mt19937 rng(seed);

  LockstepHarness::Stimulus s;
  s.setup = true;
  h.step(s);
  s.setup = false;
  s.wr_key = true;
  s.din = random_word(rng);
  h.step(s);
  s.wr_key = false;
  // Key setup time for decrypt-capable devices.
  for (int i = 0; i < 41; ++i) h.step(s);

  int results_expected = 0;
  for (int c = 0; c < cycles; ++c) {
    s.wr_data = false;
    s.wr_key = false;
    const int dice = static_cast<int>(rng() % 100);
    if (dice < 4) {
      s.wr_key = true;
      s.din = random_word(rng);
    } else if (dice < 30) {
      s.wr_data = true;
      s.encdec = (rng() & 1) != 0;
      s.din = random_word(rng);
      ++results_expected;
    }
    h.step(s);
  }
  // Drain: let in-flight work finish.
  s.wr_data = false;
  s.wr_key = false;
  for (int c = 0; c < 120; ++c) h.step(s);
  (void)results_expected;
}

}  // namespace

class Lockstep : public ::testing::TestWithParam<int> {};

TEST_P(Lockstep, EncryptUnmappedNetlist) {
  run_random_traffic(IpMode::kEncrypt, /*mapped=*/false,
                     static_cast<std::uint32_t>(GetParam()), 400);
}

TEST_P(Lockstep, EncryptMappedNetlist) {
  run_random_traffic(IpMode::kEncrypt, /*mapped=*/true,
                     static_cast<std::uint32_t>(GetParam()) + 100, 400);
}

TEST_P(Lockstep, DecryptUnmappedNetlist) {
  run_random_traffic(IpMode::kDecrypt, /*mapped=*/false,
                     static_cast<std::uint32_t>(GetParam()) + 200, 400);
}

TEST_P(Lockstep, BothMappedNetlist) {
  run_random_traffic(IpMode::kBoth, /*mapped=*/true,
                     static_cast<std::uint32_t>(GetParam()) + 300, 400);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lockstep, ::testing::Range(0, 4));

TEST(LockstepDirected, SetupMidBlockResetsBoth) {
  LockstepHarness h(IpMode::kEncrypt, true);
  std::mt19937 rng(99);
  LockstepHarness::Stimulus s;
  s.wr_key = true;
  s.din = random_word(rng);
  h.step(s);
  s.wr_key = false;
  s.wr_data = true;
  s.din = random_word(rng);
  h.step(s);
  s.wr_data = false;
  for (int i = 0; i < 20; ++i) h.step(s);  // mid-computation
  s.setup = true;
  h.step(s);
  s.setup = false;
  for (int i = 0; i < 80; ++i) h.step(s);  // neither model may produce data_ok
}

TEST(LockstepDirected, RekeyMidBlockAbortsBoth) {
  LockstepHarness h(IpMode::kEncrypt, true);
  std::mt19937 rng(7);
  LockstepHarness::Stimulus s;
  s.wr_key = true;
  s.din = random_word(rng);
  h.step(s);
  s.wr_key = false;
  s.wr_data = true;
  s.din = random_word(rng);
  h.step(s);
  s.wr_data = false;
  for (int i = 0; i < 17; ++i) h.step(s);
  s.wr_key = true;  // re-key mid-computation
  s.din = random_word(rng);
  h.step(s);
  s.wr_key = false;
  for (int i = 0; i < 120; ++i) h.step(s);
  // Then a fresh block must agree (and be correct vs either model).
  s.wr_data = true;
  s.din = random_word(rng);
  h.step(s);
  s.wr_data = false;
  for (int i = 0; i < 60; ++i) h.step(s);
}
