// Single-event-upset emulation and TMR hardening: fault-injection
// machinery, the self-healing property of the triplicated design, and
// campaign classification (the methodology of the authors' reference [16]).
#include <gtest/gtest.h>

#include <random>

#include "aes/cipher.hpp"
#include "core/gate_driver.hpp"
#include "core/ip_synth.hpp"
#include "netlist/eval.hpp"
#include "seu/campaign.hpp"
#include "seu/tmr.hpp"
#include "techmap/techmap.hpp"

namespace aes = aesip::aes;
namespace core = aesip::core;
namespace nlist = aesip::netlist;
namespace seu = aesip::seu;
namespace txm = aesip::techmap;
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

/// The mapped encrypt IP, shared across tests (mapping once keeps the
/// suite fast).
const Netlist& mapped_encrypt_ip() {
  static const txm::MapResult r = txm::map_to_luts(core::synthesize_ip(IpMode::kEncrypt, true));
  return r.mapped;
}

const seu::TmrResult& tmr_encrypt_ip() {
  static const seu::TmrResult r = seu::harden_tmr(mapped_encrypt_ip());
  return r;
}

}  // namespace

// --- injection primitive -----------------------------------------------------------

TEST(FaultInjection, FlipDffTogglesState) {
  Netlist nl;
  const NetId d = nl.add_input("d");
  const NetId q = nl.add_dff(d);
  nl.add_output(q, "q");
  nlist::Evaluator ev(nl);
  ev.set(d, false);
  ev.settle();
  ev.clock();
  EXPECT_FALSE(ev.get(q));
  ASSERT_EQ(ev.dff_count(), 1u);
  ev.flip_dff(0);
  ev.settle();
  EXPECT_TRUE(ev.get(q)) << "the upset must be visible immediately";
  ev.clock();
  EXPECT_FALSE(ev.get(q)) << "D=0 rewrites the register at the next edge";
}

TEST(FaultInjection, UpsetInStateRegisterCorruptsTheBlock) {
  // Hit a mid-computation register: the ciphertext must change (AES
  // diffusion makes a silent single-bit state error essentially impossible
  // once it is in the datapath).
  const auto key = random_block(1);
  const auto pt = random_block(2);
  aes::Aes128 ref(key);
  std::array<std::uint8_t, 16> golden{};
  ref.encrypt_block(pt, golden);

  core::GateDriver<nlist::Evaluator> drv(mapped_encrypt_ip());
  drv.load_key(key, false);
  drv.set_din(pt);
  drv.set("wr_data", true);
  drv.clock();
  drv.set("wr_data", false);
  for (int c = 0; c < 20; ++c) drv.clock();
  // Find a flip that matters: sweep until one corrupts (most will).
  bool corrupted_found = false;
  for (std::size_t dff = 0; dff < drv.evaluator().dff_count() && !corrupted_found; dff += 97) {
    core::GateDriver<nlist::Evaluator> d2(mapped_encrypt_ip());
    d2.load_key(key, false);
    d2.set_din(pt);
    d2.set("wr_data", true);
    d2.clock();
    d2.set("wr_data", false);
    for (int c = 0; c < 20; ++c) d2.clock();
    d2.evaluator().flip_dff(dff);
    d2.evaluator().settle();
    for (int c = 0; c < 60 && !d2.data_ok(); ++c) d2.clock();
    if (d2.data_ok() && d2.read_dout() != golden) corrupted_found = true;
  }
  EXPECT_TRUE(corrupted_found) << "some register upset must corrupt the output";
}

// --- TMR transform --------------------------------------------------------------------

TEST(Tmr, TriplicatesStateAndAddsVoters) {
  Netlist nl;
  const NetId d = nl.add_input("d");
  const std::array<NetId, 1> in{d};
  const NetId l = nl.add_lut(0b10, in);  // buffer
  const NetId q = nl.add_dff(l);
  nl.add_output(q, "q");
  const auto r = seu::harden_tmr(nl);
  EXPECT_EQ(r.stats.original_dffs, 1u);
  EXPECT_EQ(r.stats.voters, 1u);
  const auto st = r.hardened.stats();
  EXPECT_EQ(st.dffs, 3u);
  EXPECT_EQ(st.luts, 2u);  // the buffer + the voter
}

TEST(Tmr, RejectsUnmappedGates) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.add_output(nl.gate_not(a), "y");
  EXPECT_THROW(seu::harden_tmr(nl), std::invalid_argument);
}

TEST(Tmr, HardenedCounterStillCounts) {
  // Map a counter, harden it, and check both count identically.
  Netlist nl;
  Bus q;
  for (int i = 0; i < 4; ++i) q.push_back(nl.new_net());
  const Bus d = nl.increment(q);
  for (int i = 0; i < 4; ++i)
    nl.add_dff_with_out(q[static_cast<std::size_t>(i)], d[static_cast<std::size_t>(i)]);
  nl.add_output_bus(q, "q");
  const auto mapped = txm::map_to_luts(nl);
  const auto tmr = seu::harden_tmr(mapped.mapped);

  nlist::Evaluator ev(tmr.hardened);
  Bus out;
  for (const auto& po : tmr.hardened.outputs()) out.push_back(po.net);
  ev.settle();
  for (int v = 0; v < 20; ++v) {
    EXPECT_EQ(ev.get_bus(out), static_cast<std::uint64_t>(v & 0xf));
    ev.clock();
  }
}

TEST(Tmr, HardenedCounterHealsSingleUpsets) {
  Netlist nl;
  Bus q;
  for (int i = 0; i < 4; ++i) q.push_back(nl.new_net());
  const Bus d = nl.increment(q);
  for (int i = 0; i < 4; ++i)
    nl.add_dff_with_out(q[static_cast<std::size_t>(i)], d[static_cast<std::size_t>(i)]);
  nl.add_output_bus(q, "q");
  const auto tmr = seu::harden_tmr(txm::map_to_luts(nl).mapped);

  nlist::Evaluator ev(tmr.hardened);
  Bus out;
  for (const auto& po : tmr.hardened.outputs()) out.push_back(po.net);
  ev.settle();
  std::uint64_t expected = 0;
  for (std::size_t victim = 0; victim < ev.dff_count(); ++victim) {
    EXPECT_EQ(ev.get_bus(out), expected & 0xf) << "before upset " << victim;
    ev.flip_dff(victim);
    ev.settle();
    EXPECT_EQ(ev.get_bus(out), expected & 0xf)
        << "voted output must mask upset in replica " << victim;
    ev.clock();  // replicas resample voted state: healed
    ++expected;
  }
}

TEST(Tmr, HardenedIpStillEncrypts) {
  const auto& tmr = tmr_encrypt_ip();
  core::GateDriver<nlist::Evaluator> drv(tmr.hardened);
  const auto key = random_block(5);
  const auto pt = random_block(6);
  aes::Aes128 ref(key);
  std::array<std::uint8_t, 16> golden{};
  ref.encrypt_block(pt, golden);
  drv.load_key(key, false);
  const auto res = drv.process(pt, true);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->data, golden);
  EXPECT_EQ(res->cycles, 50) << "hardening must not change the schedule";
}

TEST(Tmr, AreaOverheadIsThreeXStatePlusVoters) {
  const auto base_stats = mapped_encrypt_ip().stats();
  const auto& tmr = tmr_encrypt_ip();
  const auto hard_stats = tmr.hardened.stats();
  EXPECT_EQ(hard_stats.dffs, 3 * base_stats.dffs);
  EXPECT_EQ(hard_stats.luts, base_stats.luts + base_stats.dffs);  // one voter per FF
  EXPECT_EQ(hard_stats.rom_bits, base_stats.rom_bits) << "memory is not triplicated";
}

// --- campaigns ---------------------------------------------------------------------------

TEST(Campaign, ClassifiesEveryInjection) {
  const auto stats = seu::run_campaign(mapped_encrypt_ip(), 40, /*seed=*/7);
  EXPECT_EQ(stats.total(), 40u);
  EXPECT_EQ(stats.injections.size(), 40u);
  for (const auto& inj : stats.injections) {
    EXPECT_LT(inj.cycle, 50);
    EXPECT_LT(inj.dff, mapped_encrypt_ip().stats().dffs);
  }
}

TEST(Campaign, IsDeterministicForASeed) {
  const auto a = seu::run_campaign(mapped_encrypt_ip(), 15, 3);
  const auto b = seu::run_campaign(mapped_encrypt_ip(), 15, 3);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.latent, b.latent);
  EXPECT_EQ(a.persistent, b.persistent);
  EXPECT_EQ(a.hang, b.hang);
}

TEST(Campaign, UnprotectedCoreIsSensitive) {
  const auto stats = seu::run_campaign(mapped_encrypt_ip(), 60, 11);
  // Most of the state is live datapath/key registers: a healthy fraction of
  // upsets must corrupt the output (reference [16] reports the same).
  EXPECT_GT(stats.corrupted + stats.latent + stats.persistent + stats.hang, 10u);
  // Key_In-register hits surface as latent corruption — the classification
  // the follow-up block exists to catch.
  EXPECT_GT(stats.latent, 0u);
  // And some upsets land in already-consumed state and are masked.
  EXPECT_GT(stats.masked, 0u);
}

TEST(Campaign, TmrMasksEverything) {
  const auto stats = seu::run_campaign(tmr_encrypt_ip().hardened, 60, 13);
  EXPECT_EQ(stats.masked, stats.total())
      << "a single upset can never escape the voters";
}

TEST(Campaign, OutcomeNames) {
  EXPECT_STREQ(seu::outcome_name(seu::Outcome::kMasked), "masked");
  EXPECT_STREQ(seu::outcome_name(seu::Outcome::kCorrupted), "corrupted");
  EXPECT_STREQ(seu::outcome_name(seu::Outcome::kLatent), "latent");
  EXPECT_STREQ(seu::outcome_name(seu::Outcome::kPersistent), "persistent");
  EXPECT_STREQ(seu::outcome_name(seu::Outcome::kHang), "hang");
}
