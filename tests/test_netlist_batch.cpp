// BatchEvaluator vs. Evaluator: the lane-packed compiled tape must agree
// bit-for-bit with the scalar interpreter on every netlist this repository
// can produce — every synthesized datapath block (all cell kinds, ROMs),
// random LUT networks over every arity, clock-enabled flip-flops with
// per-lane enables, and the full IP through the Table 1 protocol across
// partial batch widths. The scalar evaluator is the oracle; any divergence
// here is a compile bug in the tape, not a netlist bug.
//
// The whole suite runs against whatever backend AESIP_BATCH_BACKEND forces
// (the ctest matrix runs it once per compiled-in backend: u64, avx2,
// avx512 — and neon on aarch64).  When the forced backend is not
// supported on this host, every test skips with the reason, mirroring the
// hw<4 skips elsewhere in the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "aes/cipher.hpp"
#include "aes/modes.hpp"
#include "aes/sbox.hpp"
#include "core/gate_driver.hpp"
#include "core/ip_synth.hpp"
#include "farm/farm.hpp"
#include "netlist/batch_backend.hpp"
#include "netlist/batch_eval.hpp"
#include "netlist/eval.hpp"
#include "netlist/netlist.hpp"
#include "netlist/synth.hpp"

namespace nlist = aesip::netlist;
namespace aes = aesip::aes;
namespace core = aesip::core;
namespace farm = aesip::farm;
using nlist::BatchEvaluator;
using nlist::Bus;
using nlist::Evaluator;
using nlist::Netlist;

namespace {

/// Base fixture: skip with a reason when AESIP_BATCH_BACKEND forces a
/// backend this host cannot run (the backend-matrix ctest rows rely on
/// this — same shape as the hw<4 conformance skips).
class NetlistBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    if (const auto forced = nlist::env_forced_backend();
        forced && !nlist::backend_supported(*forced))
      GTEST_SKIP() << "batch backend '" << nlist::backend_name(*forced)
                   << "' is not supported on this host";
  }
};

/// Drive every primary input with independent random data in EVERY lane
/// word (so a wide backend's upper words are exercised, not just word 0),
/// then check every primary output in every lane against the scalar
/// evaluator fed the corresponding lane's bits. Combinational only.
void check_comb_parity(const Netlist& nl, std::uint32_t seed, int rounds = 4) {
  Evaluator scalar(nl);
  BatchEvaluator batch(nl);
  std::mt19937_64 rng(seed);
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::pair<nlist::NetId, std::vector<std::uint64_t>>> stim;
    for (const auto& pin : nl.inputs()) {
      std::vector<std::uint64_t> words(batch.stride());
      for (std::size_t wi = 0; wi < words.size(); ++wi) {
        words[wi] = rng();
        batch.set_word(pin.net, words[wi], wi);
      }
      stim.emplace_back(pin.net, std::move(words));
    }
    batch.settle();
    for (std::size_t lane = 0; lane < batch.lanes(); ++lane) {
      for (const auto& [net, words] : stim)
        scalar.set(net, (words[lane / 64] >> (lane % 64)) & 1U);
      scalar.settle();
      for (const auto& pout : nl.outputs())
        ASSERT_EQ(scalar.get(pout.net), batch.get(pout.net, lane))
            << "output " << pout.name << " lane " << lane << " round " << r;
    }
  }
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

}  // namespace

// Every synthesized datapath block, lane-for-lane. Exercises every
// combinational cell kind the generators emit: primitive gates (xtime,
// MixColumn), pure wiring (ShiftRows), ROM macros, and the kLut networks of
// the Shannon and composite-field S-boxes.
TEST_F(NetlistBatch, SynthesizedBlocksMatchScalar) {
  struct Block {
    const char* name;
    void (*build)(Netlist&);
  };
  const Block blocks[] = {
      {"xtime",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_xtime(nl, nl.add_input_bus("a", 8)), "y");
       }},
      {"mix_column_fwd",
       [](Netlist& nl) {
         std::array<Bus, 4> in;
         for (int i = 0; i < 4; ++i)
           in[static_cast<std::size_t>(i)] = nl.add_input_bus("a" + std::to_string(i), 8);
         const auto out = nlist::synth_mix_column(nl, in, false);
         for (int i = 0; i < 4; ++i)
           nl.add_output_bus(out[static_cast<std::size_t>(i)], "y" + std::to_string(i));
       }},
      {"mix_column_inv",
       [](Netlist& nl) {
         std::array<Bus, 4> in;
         for (int i = 0; i < 4; ++i)
           in[static_cast<std::size_t>(i)] = nl.add_input_bus("a" + std::to_string(i), 8);
         const auto out = nlist::synth_mix_column(nl, in, true);
         for (int i = 0; i < 4; ++i)
           nl.add_output_bus(out[static_cast<std::size_t>(i)], "y" + std::to_string(i));
       }},
      {"mix_columns128_fwd",
       [](Netlist& nl) {
         nl.add_output_bus(
             nlist::synth_mix_columns128(nl, nl.add_input_bus("state", 128), false), "y");
       }},
      {"mix_columns128_inv",
       [](Netlist& nl) {
         nl.add_output_bus(
             nlist::synth_mix_columns128(nl, nl.add_input_bus("state", 128), true), "y");
       }},
      {"shift_rows128_fwd",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_shift_rows128(nl.add_input_bus("state", 128), false),
                           "y");
       }},
      {"shift_rows128_inv",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_shift_rows128(nl.add_input_bus("state", 128), true),
                           "y");
       }},
      {"sbox_rom",
       [](Netlist& nl) {
         nl.add_output_bus(
             nlist::synth_sbox_rom(nl, aes::kSBox, nl.add_input_bus("addr", 8), "sbox"), "y");
       }},
      {"sbox_logic",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_sbox_logic(nl, aes::kSBox, nl.add_input_bus("addr", 8)),
                           "y");
       }},
      {"sbox_composite_fwd",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_sbox_composite(nl, nl.add_input_bus("addr", 8), false),
                           "y");
       }},
      {"sbox_composite_inv",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_sbox_composite(nl, nl.add_input_bus("addr", 8), true),
                           "y");
       }},
      {"sub_word32_rom",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_sub_word32(nl, aes::kSBox, nl.add_input_bus("w", 32),
                                                   /*as_rom=*/true, "bank"),
                           "y");
       }},
      {"sub_word32_logic",
       [](Netlist& nl) {
         nl.add_output_bus(nlist::synth_sub_word32(nl, aes::kSBox, nl.add_input_bus("w", 32),
                                                   /*as_rom=*/false, "bank"),
                           "y");
       }},
  };
  std::uint32_t seed = 1;
  for (const auto& b : blocks) {
    SCOPED_TRACE(b.name);
    Netlist nl;
    b.build(nl);
    check_comb_parity(nl, seed++);
  }
}

// Random pre-mapped LUT networks across every legal arity (1..4) with
// random truth tables — the Shannon expansion's constant-cofactor collapse
// paths all get hit somewhere in here.
TEST_F(NetlistBatch, RandomLutNetworksMatchScalar) {
  for (std::uint32_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE(seed);
    Netlist nl;
    std::mt19937 rng(1000 + seed);
    std::vector<nlist::NetId> pool = nl.add_input_bus("in", 8);
    pool.push_back(nl.const0());
    pool.push_back(nl.const1());
    Bus outs;
    for (int i = 0; i < 48; ++i) {
      const int arity = 1 + i % 4;
      std::vector<nlist::NetId> in(static_cast<std::size_t>(arity));
      for (auto& n : in) n = pool[rng() % pool.size()];
      // Unmasked masks include constant-0/constant-1 tables, so every
      // Shannon constant-cofactor collapse path gets exercised.
      const auto all = static_cast<std::uint16_t>((1U << (1U << arity)) - 1U);
      const auto mask = static_cast<std::uint16_t>(rng() & all);
      const nlist::NetId q = nl.add_lut(mask, in);
      pool.push_back(q);
      if (i % 4 == 3) outs.push_back(q);
    }
    nl.add_output_bus(outs, "y");
    check_comb_parity(nl, 2000 + seed, /*rounds=*/2);
  }
}

// Sequential parity: flip-flops with and without clock-enables, where the
// enables differ per lane — so lanes genuinely diverge. One BatchEvaluator
// against 64 independent scalar evaluators over several clocks.
TEST_F(NetlistBatch, ClockEnableDffsDivergePerLane) {
  Netlist nl;
  const Bus d = nl.add_input_bus("d", 4);
  const nlist::NetId en0 = nl.add_input("en0");
  const nlist::NetId en1 = nl.add_input("en1");
  const nlist::NetId q0 = nl.add_dff(d[0]);                       // always enabled
  const nlist::NetId q1 = nl.add_dff(d[1], en0);                  // gated
  const nlist::NetId q2 = nl.add_dff(nl.gate_xor(q0, d[2]), en1); // gated, feedback cone
  const nlist::NetId q3 = nl.add_dff(nl.gate_mux(en0, q1, d[3])); // enable used as data
  const Bus q{q0, q1, q2, q3};
  nl.add_output_bus(q, "q");

  BatchEvaluator batch(nl);
  const std::size_t lanes = batch.lanes();
  std::vector<std::unique_ptr<Evaluator>> scalars;
  for (std::size_t lane = 0; lane < lanes; ++lane)
    scalars.push_back(std::make_unique<Evaluator>(nl));

  std::mt19937_64 rng(42);
  for (int cycle = 0; cycle < 8; ++cycle) {
    std::vector<std::pair<nlist::NetId, std::vector<std::uint64_t>>> stim;
    for (const auto& pin : nl.inputs()) {
      std::vector<std::uint64_t> words(batch.stride());
      for (std::size_t wi = 0; wi < words.size(); ++wi) {
        words[wi] = rng();
        batch.set_word(pin.net, words[wi], wi);
      }
      stim.emplace_back(pin.net, std::move(words));
    }
    for (std::size_t lane = 0; lane < lanes; ++lane)
      for (const auto& [net, words] : stim)
        scalars[lane]->set(net, (words[lane / 64] >> (lane % 64)) & 1U);
    batch.clock();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      scalars[lane]->clock();
      for (const auto& pout : nl.outputs())
        ASSERT_EQ(scalars[lane]->get(pout.net), batch.get(pout.net, lane))
            << "cycle " << cycle << " lane " << lane << " output " << pout.name;
    }
  }

  // reset() zeroes and publishes Q in every lane without settling — the
  // scalar evaluator's exact contract.
  batch.reset();
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    scalars[lane]->reset();
    for (const nlist::NetId n : q) {
      ASSERT_FALSE(batch.get(n, lane)) << "lane " << lane;
      ASSERT_EQ(scalars[lane]->get(n), batch.get(n, lane));
    }
  }
}

// Both evaluators must reject a combinational cycle at construction. The
// normal builder API only produces DAGs; add_lut_with_out (the
// transformation-pass escape hatch) can miswire a loop — x = AND(a, y),
// y = AND(a, x) — and both constructors must refuse it identically.
TEST_F(NetlistBatch, CombinationalCycleRejectionParity) {
  Netlist nl;
  const nlist::NetId a = nl.add_input("a");
  const nlist::NetId x = nl.new_net();
  const nlist::NetId y = nl.new_net();
  const std::array<nlist::NetId, 2> in_x{a, y};
  const std::array<nlist::NetId, 2> in_y{a, x};
  nl.add_lut_with_out(x, 0b1000, in_x);
  nl.add_lut_with_out(y, 0b1000, in_y);
  nl.add_output(y, "y");
  EXPECT_THROW(Evaluator scalar(nl), std::runtime_error);
  EXPECT_THROW(BatchEvaluator batch(nl), std::runtime_error);
}

// An unrecognized AESIP_BATCH_BACKEND — the name of a deleted backend, a
// typo in a matrix row — must fail construction naming the value and the accepted
// names, not silently fall back to auto-detection and pass.
TEST_F(NetlistBatch, UnknownEnvBackendIsRejected) {
  struct EnvRestore {
    std::optional<std::string> saved;
    EnvRestore() {
      if (const char* v = std::getenv("AESIP_BATCH_BACKEND")) saved = v;
    }
    ~EnvRestore() {
      if (saved)
        ::setenv("AESIP_BATCH_BACKEND", saved->c_str(), 1);
      else
        ::unsetenv("AESIP_BATCH_BACKEND");
    }
  } restore;
  Netlist nl;
  nl.add_output_bus(nlist::synth_xtime(nl, nl.add_input_bus("a", 8)), "y");
  for (const std::string bad : {"jit", "bogus"}) {
    ::setenv("AESIP_BATCH_BACKEND", bad.c_str(), 1);
    try {
      BatchEvaluator batch(nl);
      ADD_FAILURE() << "AESIP_BATCH_BACKEND=" << bad << " constructed a "
                    << nlist::backend_name(batch.backend()) << " evaluator";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << what;
      for (const char* name : {"u64", "neon", "avx2", "avx512"})
        EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

// The full IP through the Table 1 protocol at every partial batch width
// 1..63 (and 64), for AES-128/192/256 kBoth netlists: both driver
// instantiations take the key (multi-beat above 128 bits) in beats + 4*Nr
// cycles (a 40/48/56-cycle decrypt key setup), the scalar driver's lone
// block takes 5*Nr = 50/60/70 cycles, ciphertexts match aes::Rijndael bit
// for bit, per-lane latency matches the scalar driver, and a width-n pass
// costs exactly n lanes = 1 blocks of cycles.
TEST_F(NetlistBatch, FullIpPartialBatchesMatchReference) {
  for (const int key_bits : {128, 192, 256}) {
    SCOPED_TRACE("AES-" + std::to_string(key_bits));
    const auto nl = core::synthesize_ip(core::IpMode::kBoth, nlist::SboxStyle::kRom,
                                        nlist::MixColStyle::kXtime, key_bits);
    core::GateDriver<BatchEvaluator> batch(nl);
    core::GateDriver<Evaluator> scalar(nl);

    const auto key = random_bytes(static_cast<std::size_t>(key_bits / 8), 7);
    const aes::Rijndael ref = aes::Rijndael::for_key(key);
    const int nr = key_bits / 32 + 6;
    const std::uint64_t beats = (key.size() + 15) / 16;
    const std::uint64_t key_cycles = beats + static_cast<std::uint64_t>(4 * nr);
    batch.reset();
    std::uint64_t before = batch.cycles();
    batch.load_key(key, /*needs_setup=*/true);
    ASSERT_EQ(batch.cycles() - before, key_cycles);
    scalar.reset();
    before = scalar.cycles();
    scalar.load_key(key, /*needs_setup=*/true);
    ASSERT_EQ(scalar.cycles() - before, key_cycles);

    // Scalar oracle latency and per-block cycles from one block.
    const auto plain0 = random_bytes(16, 8);
    before = scalar.cycles();
    const auto r0 = scalar.process(plain0, /*encrypt=*/true);
    ASSERT_TRUE(r0.has_value());
    const int scalar_latency = r0->cycles;
    const std::uint64_t scalar_block_cycles = scalar.cycles() - before;
    ASSERT_EQ(scalar_latency, 5 * nr);
    ASSERT_EQ(scalar_block_cycles, static_cast<std::uint64_t>(scalar_latency + 1));
    std::array<std::uint8_t, 16> want0{};
    ref.encrypt_block(plain0, want0);
    ASSERT_EQ(r0->data, want0);

    // Every width through 64 (the historical sweep), then a handful of wide
    // widths up to the backend's full lane count.
    std::vector<std::size_t> widths;
    for (std::size_t n = 1; n <= std::min<std::size_t>(64, batch.lanes()); ++n)
      widths.push_back(n);
    if (batch.lanes() > 64)
      for (const std::size_t n :
           {std::size_t{65}, batch.lanes() / 2, batch.lanes() - 1, batch.lanes()})
        widths.push_back(n);
    std::uint32_t seed = 100;
    for (const std::size_t n : widths) {
      const auto plain = random_bytes(16 * n, seed++);
      std::vector<std::uint8_t> got(16 * n);
      before = batch.cycles();
      const auto r = batch.process(plain, got, n, /*encrypt=*/true);
      ASSERT_TRUE(r.has_value()) << "n=" << n;
      ASSERT_EQ(r->cycles, scalar_latency) << "n=" << n;
      // Load edge + latency clocks, each weighted by the active lane count.
      ASSERT_EQ(batch.cycles() - before, n * scalar_block_cycles) << "n=" << n;
      for (std::size_t blk = 0; blk < n; ++blk) {
        std::array<std::uint8_t, 16> want{};
        ref.encrypt_block(std::span<const std::uint8_t>(plain.data() + 16 * blk, 16), want);
        ASSERT_TRUE(std::equal(want.begin(), want.end(),
                               got.begin() + static_cast<std::ptrdiff_t>(16 * blk)))
            << "n=" << n << " block " << blk;
      }
    }

    // Decrypt parity against the scalar gate driver on a handful of widths.
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{3}, std::size_t{17}, batch.lanes()}) {
      const auto cipher = random_bytes(16 * n, seed++);
      std::vector<std::uint8_t> got(16 * n);
      const auto r = batch.process(cipher, got, n, /*encrypt=*/false);
      ASSERT_TRUE(r.has_value()) << "n=" << n;
      for (std::size_t blk = 0; blk < n; ++blk) {
        const auto want = scalar.process(
            std::span<const std::uint8_t>(cipher.data() + 16 * blk, 16), /*encrypt=*/false);
        ASSERT_TRUE(want.has_value());
        ASSERT_EQ(r->cycles, want->cycles) << "n=" << n << " block " << blk;
        ASSERT_TRUE(std::equal(want->data.begin(), want->data.end(),
                               got.begin() + static_cast<std::ptrdiff_t>(16 * blk)))
            << "n=" << n << " block " << blk;
        std::array<std::uint8_t, 16> plain{};
        ref.decrypt_block(std::span<const std::uint8_t>(cipher.data() + 16 * blk, 16), plain);
        ASSERT_EQ(want->data, plain) << "n=" << n << " block " << blk;
      }
    }
  }
}

// A register chain behind the Table 1 port names, so both gate drivers bind
// to it: q[0] = DFF(din[0]), q[i] = DFF(din[i] ^ q[i-1]), dout = q. Every
// din net and every Q but the last feeds a D combinationally, so an edge
// clocked on unsettled nets samples a wrong D somewhere.
namespace {

struct XorChain {
  Netlist nl;
  Bus din;
};

XorChain xor_chain() {
  XorChain c;
  c.din = c.nl.add_input_bus("din", 128);
  for (const char* name : {"setup", "wr_data", "wr_key"}) c.nl.add_input(name);
  Bus q;
  for (std::size_t i = 0; i < c.din.size(); ++i)
    q.push_back(c.nl.add_dff(i == 0 ? c.din[0] : c.nl.gate_xor(c.din[i], q.back())));
  c.nl.add_output_bus(q, "dout");
  return c;
}

}  // namespace

// The stale-input contract: every public write marks the evaluator stale,
// so the driver's edge (which skips the pre-edge settle on settled nets)
// must land exactly where an explicit settle() + clock() does — in every
// net word of every lane, after every mutator.
TEST_F(NetlistBatch, StaleAwareClockMatchesExplicitSettleAfterEveryMutator) {
  const auto chain = xor_chain();
  const Bus& din = chain.din;
  const Bus byte_a(din.begin() + 16, din.begin() + 24);
  const Bus byte_b(din.begin() + 32, din.begin() + 40);
  const std::pair<const char*, std::function<void(BatchEvaluator&)>> mutators[] = {
      {"set", [&](BatchEvaluator& ev) {
         const std::size_t lane = ev.lanes() - 1;
         ev.set(din[3], lane, !ev.get(din[3], lane));
       }},
      {"set_word", [&](BatchEvaluator& ev) {
         const std::size_t wi = ev.stride() - 1;
         ev.set_word(din[5], ~ev.word(din[5], wi), wi);
       }},
      {"set_bus", [&](BatchEvaluator& ev) {
         const std::size_t lane = ev.lanes() - 1;
         ev.set_bus(byte_a, lane, ~ev.get_bus(byte_a, lane) & 0xFFU);
       }},
      {"broadcast", [&](BatchEvaluator& ev) { ev.broadcast(din[7], !ev.get(din[7], 0)); }},
      {"broadcast_bus",
       [&](BatchEvaluator& ev) { ev.broadcast_bus(byte_b, ~ev.get_bus(byte_b, 0) & 0xFFU); }},
      {"flip_dff", [](BatchEvaluator& ev) { ev.flip_dff(3); }},
      {"flip_dff_lane", [](BatchEvaluator& ev) { ev.flip_dff_lane(4, ev.lanes() - 1); }},
      {"flip_dff_mask", [](BatchEvaluator& ev) {
         std::vector<std::uint64_t> mask(ev.stride(), 0);
         mask.front() |= std::uint64_t{1} << 5;
         mask.back() |= std::uint64_t{1} << 62;
         ev.flip_dff_mask(5, mask);
       }},
      {"reset", [](BatchEvaluator& ev) { ev.reset(); }},
  };
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    core::GateDriver<BatchEvaluator> a(chain.nl);
    core::GateDriver<BatchEvaluator> b(chain.nl);
    const std::size_t lanes = a.lanes();
    for (std::uint32_t seed = 0; seed < 2; ++seed) {  // random state in every lane
      const auto data = random_bytes(16 * lanes, 90 + seed);
      a.set_din(data, lanes);
      b.set_din(data, lanes);
      a.clock();
      b.clock();
    }
    ASSERT_FALSE(a.evaluator().stale());
    mutate(a.evaluator());
    mutate(b.evaluator());
    a.clock();
    b.evaluator().settle();
    b.evaluator().clock();
    EXPECT_FALSE(a.evaluator().stale());
    for (nlist::NetId n = 0; n < chain.nl.net_count(); ++n)
      for (std::size_t wi = 0; wi < a.evaluator().stride(); ++wi)
        ASSERT_EQ(a.evaluator().word(n, wi), b.evaluator().word(n, wi))
            << "net " << n << " word " << wi;
  }
}

// The scalar driver keeps the same contract on the oracle evaluator.
TEST_F(NetlistBatch, ScalarStaleAwareClockMatchesExplicitSettleAfterEveryMutator) {
  const auto chain = xor_chain();
  const Bus& din = chain.din;
  const Bus byte_a(din.begin() + 16, din.begin() + 24);
  const std::pair<const char*, std::function<void(Evaluator&)>> mutators[] = {
      {"set", [&](Evaluator& ev) { ev.set(din[3], !ev.get(din[3])); }},
      {"set_bus", [&](Evaluator& ev) { ev.set_bus(byte_a, ~ev.get_bus(byte_a) & 0xFFU); }},
      {"flip_dff", [](Evaluator& ev) { ev.flip_dff(3); }},
      {"reset", [](Evaluator& ev) { ev.reset(); }},
  };
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    core::GateDriver<Evaluator> a(chain.nl);
    core::GateDriver<Evaluator> b(chain.nl);
    for (std::uint32_t seed = 0; seed < 2; ++seed) {
      const auto data = random_bytes(16, 95 + seed);
      a.set_din(data);
      b.set_din(data);
      a.clock();
      b.clock();
    }
    ASSERT_FALSE(a.evaluator().stale());
    mutate(a.evaluator());
    mutate(b.evaluator());
    a.clock();
    b.evaluator().settle();
    b.evaluator().clock();
    EXPECT_FALSE(a.evaluator().stale());
    const auto va = a.evaluator().net_values();
    const auto vb = b.evaluator().net_values();
    ASSERT_TRUE(std::equal(va.begin(), va.end(), vb.begin(), vb.end()));
  }
}

// One settle per clock edge plus one per input change: a decrypt key setup
// (one wr_key beat, then 40 setup edges on unchanged inputs) and a 1-block
// AES-128 pass (the load edge, wr_data dropping, then 49 quiet edges) each
// settle at most edges + 2 times — not twice per edge.
TEST_F(NetlistBatch, OneSettlePerEdgePlusOnePerInputChange) {
  const auto nl = core::synthesize_ip(core::IpMode::kBoth, /*sbox_as_rom=*/true);
  core::GateDriver<BatchEvaluator> drv(nl);
  const BatchEvaluator& ev = drv.evaluator();
  drv.reset();

  const auto key = random_bytes(16, 81);
  std::uint64_t settles = ev.settle_count();
  std::uint64_t edges = drv.cycles();
  drv.load_key(key, /*needs_setup=*/true);
  edges = drv.cycles() - edges;
  settles = ev.settle_count() - settles;
  EXPECT_EQ(edges, 41u);
  EXPECT_LE(settles, edges + 2) << "key setup";

  const auto plain = random_bytes(16, 82);
  std::vector<std::uint8_t> got(16);
  settles = ev.settle_count();
  const auto r = drv.process(plain, got, 1, /*encrypt=*/true);
  settles = ev.settle_count() - settles;
  ASSERT_TRUE(r.has_value());
  edges = static_cast<std::uint64_t>(r->cycles) + 1;  // the load edge + latency
  EXPECT_EQ(edges, 51u);
  EXPECT_LE(settles, edges + 2) << "1-block pass";

  std::array<std::uint8_t, 16> want{};
  aes::Aes128(std::span<const std::uint8_t, 16>(key.data(), 16))
      .encrypt_block(std::span<const std::uint8_t, 16>(plain.data(), 16), want);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
}

// The farm's batched dispatch end to end: 4 netlist workers draining
// multi-job batches, verified against the software reference across
// ECB/CBC/CTR — including a CTR payload large enough to fan out.
TEST_F(NetlistBatch, FarmBatchDispatchMatchesReference) {
  farm::FarmConfig cfg;
  cfg.workers = 4;
  cfg.engine = aesip::engine::EngineKind::kNetlist;
  farm::Farm f(cfg);

  std::mt19937 rng(77);
  std::vector<std::pair<farm::Request, std::vector<std::uint8_t>>> cases;
  for (int i = 0; i < 9; ++i) {
    farm::Request req;
    req.session_id = static_cast<std::uint64_t>(i % 3);
    farm::Key128 kb;
    for (auto& b : kb) b = static_cast<std::uint8_t>(rng() + i % 3);
    req.key = kb;
    for (auto& b : req.iv) b = static_cast<std::uint8_t>(rng());
    const std::size_t blocks = (i == 8) ? 96 : 2 + i;  // the last one fans out
    req.mode = (i % 3 == 0) ? farm::Mode::kEcb : (i % 3 == 1) ? farm::Mode::kCbc
                                                              : farm::Mode::kCtr;
    req.encrypt = (i % 2) == 0;
    if (i == 8) req.mode = farm::Mode::kCtr;
    req.payload = random_bytes(blocks * 16, 500 + static_cast<std::uint32_t>(i));

    const aes::Rijndael ref = aes::Rijndael::for_key(req.key.view());
    const std::span<const std::uint8_t, 16> iv(req.iv.data(), 16);
    std::vector<std::uint8_t> want;
    switch (req.mode) {
      case farm::Mode::kEcb:
        want = req.encrypt ? aes::ecb_encrypt(ref, req.payload)
                           : aes::ecb_decrypt(ref, req.payload);
        break;
      case farm::Mode::kCbc:
        want = req.encrypt ? aes::cbc_encrypt(ref, iv, req.payload)
                           : aes::cbc_decrypt(ref, iv, req.payload);
        break;
      case farm::Mode::kCtr:
        want = aes::ctr_crypt(ref, iv, req.payload);
        break;
    }
    cases.emplace_back(std::move(req), std::move(want));
  }

  std::vector<std::future<farm::Result>> futures;
  for (auto& [req, want] : cases) futures.push_back(f.submit(req));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto result = futures[i].get();
    EXPECT_EQ(result.data, cases[i].second) << "request " << i;
  }
}

// SEU-injection parity: flipping the same DFF in the scalar evaluator and
// in lane 0 of the BatchEvaluator (lane mask 1) must corrupt — or mask, or
// hang — identically, while the batch's untouched lane 1 keeps producing
// clean ciphertext. This is what lets the farm's chaos machinery
// (Farm::corrupting_site, seu/live.hpp) classify sites on the scalar
// evaluator and trust the classification for batch-mode engines.
TEST_F(NetlistBatch, SeuFlipParityScalarVsLaneZero) {
  const auto nl = core::synthesize_ip(core::IpMode::kEncrypt, /*sbox_as_rom=*/true);
  core::GateDriver<Evaluator> scalar(nl);
  core::GateDriver<BatchEvaluator> batch(nl);

  const auto key = random_bytes(16, 31);
  const aes::Aes128 ref(std::span<const std::uint8_t, 16>(key.data(), 16));
  const bool setup = scalar.has_input("encdec");
  scalar.reset();
  scalar.load_key(key, setup);
  batch.reset();
  batch.load_key(key, setup);

  const std::size_t n_dffs = scalar.evaluator().dff_count();
  ASSERT_EQ(batch.evaluator().dff_count(), n_dffs);
  ASSERT_GT(n_dffs, 0u);

  std::mt19937 rng(77);
  const auto plain = random_bytes(32, 33);  // lane 0 and lane 1 payloads
  std::array<std::uint8_t, 16> clean1{};
  ref.encrypt_block(std::span<const std::uint8_t, 16>(plain.data() + 16, 16), clean1);

  int corrupting = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t site = rng() % n_dffs;

    // The standby upset, between blocks: scalar and batch lane 0 only.
    scalar.evaluator().flip_dff(site);
    scalar.evaluator().settle();
    batch.evaluator().flip_dff_lane(site, 0);
    batch.evaluator().settle();

    const auto sres =
        scalar.process(std::span<const std::uint8_t>(plain.data(), 16), /*encrypt=*/true);
    std::vector<std::uint8_t> got(32);
    const auto bres = batch.process(plain, got, /*n=*/2, /*encrypt=*/true);

    ASSERT_EQ(sres.has_value(), bres.has_value()) << "site " << site << ": one hung";
    if (!sres) {
      // Both hung identically; resynchronize and keep sampling.
      scalar.reset();
      scalar.load_key(key, setup);
      batch.reset();
      batch.load_key(key, setup);
      continue;
    }
    // Lane 0 tracks the scalar evaluator bit-for-bit, corrupted or not...
    EXPECT_TRUE(std::equal(sres->data.begin(), sres->data.end(), got.begin()))
        << "site " << site << ": lane 0 diverged from the scalar evaluator";
    // ...and the flip never leaks into the untouched lane 1.
    EXPECT_TRUE(std::equal(clean1.begin(), clean1.end(), got.begin() + 16))
        << "site " << site << ": lane mask leaked into lane 1";

    std::array<std::uint8_t, 16> clean0{};
    ref.encrypt_block(std::span<const std::uint8_t, 16>(plain.data(), 16), clean0);
    if (!std::equal(clean0.begin(), clean0.end(), sres->data.begin())) ++corrupting;
  }
  // The sweep must have exercised at least one genuinely corrupting flip,
  // or the parity claim was tested only on masked sites.
  EXPECT_GT(corrupting, 0);
}

// Per-lane SEU isolation at wide widths: a flip targeted at one lane —
// including lanes above 63, in the upper words of a wide backend — may
// corrupt only that lane. Every other lane of a full-width batch must keep
// producing bit-clean ciphertext, or the lane-mask plumbing leaks across
// the 64-lane word boundary.
TEST_F(NetlistBatch, SeuFlipLaneIsolationAtWideWidths) {
  const auto nl = core::synthesize_ip(core::IpMode::kEncrypt, /*sbox_as_rom=*/true);
  core::GateDriver<BatchEvaluator> batch(nl);
  const std::size_t lanes = batch.lanes();

  const auto key = random_bytes(16, 51);
  const aes::Aes128 ref(std::span<const std::uint8_t, 16>(key.data(), 16));
  const bool setup = batch.has_input("encdec");

  const auto plain = random_bytes(16 * lanes, 52);
  std::vector<std::uint8_t> clean(16 * lanes);
  for (std::size_t blk = 0; blk < lanes; ++blk)
    ref.encrypt_block(std::span<const std::uint8_t, 16>(plain.data() + 16 * blk, 16),
                      std::span<std::uint8_t, 16>(clean.data() + 16 * blk, 16));

  const std::size_t n_dffs = batch.evaluator().dff_count();
  ASSERT_GT(n_dffs, 0u);
  std::mt19937 rng(53);

  // Lane picks that straddle every interesting word boundary.
  std::vector<std::size_t> targets{0, lanes - 1};
  if (lanes > 64) {
    targets.push_back(63);
    targets.push_back(64);  // first lane of word 1
    targets.push_back(lanes / 2);
  }
  int corrupting = 0;
  for (const std::size_t lane : targets) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t site = rng() % n_dffs;
      batch.reset();
      batch.load_key(key, setup);
      batch.evaluator().flip_dff_lane(site, lane);
      batch.evaluator().settle();

      std::vector<std::uint8_t> got(16 * lanes);
      const auto r = batch.process(plain, got, lanes, /*encrypt=*/true);
      if (!r.has_value()) continue;  // flip hung the (shared) FSM; resync next trial
      for (std::size_t blk = 0; blk < lanes; ++blk) {
        if (blk == lane) {
          if (!std::equal(clean.begin() + static_cast<std::ptrdiff_t>(16 * blk),
                          clean.begin() + static_cast<std::ptrdiff_t>(16 * blk + 16),
                          got.begin() + static_cast<std::ptrdiff_t>(16 * blk)))
            ++corrupting;
          continue;  // the targeted lane is allowed to corrupt
        }
        ASSERT_TRUE(std::equal(clean.begin() + static_cast<std::ptrdiff_t>(16 * blk),
                               clean.begin() + static_cast<std::ptrdiff_t>(16 * blk + 16),
                               got.begin() + static_cast<std::ptrdiff_t>(16 * blk)))
            << "site " << site << " flipped in lane " << lane << " leaked into lane " << blk;
      }
    }
  }
  // The sweep must have seen at least one real corruption, or isolation was
  // only ever tested on masked flips.
  EXPECT_GT(corrupting, 0);
}

// flip_dff_mask with a multi-word mask: exactly the selected lanes may
// diverge; lanes whose mask bits are clear stay bit-clean — in every word.
TEST_F(NetlistBatch, SeuFlipMaskSelectsExactLanes) {
  const auto nl = core::synthesize_ip(core::IpMode::kEncrypt, /*sbox_as_rom=*/true);
  core::GateDriver<BatchEvaluator> batch(nl);
  const std::size_t lanes = batch.lanes();
  const std::size_t words = lanes / 64;

  const auto key = random_bytes(16, 61);
  const aes::Aes128 ref(std::span<const std::uint8_t, 16>(key.data(), 16));
  const bool setup = batch.has_input("encdec");

  const auto plain = random_bytes(16 * lanes, 62);
  std::vector<std::uint8_t> clean(16 * lanes);
  for (std::size_t blk = 0; blk < lanes; ++blk)
    ref.encrypt_block(std::span<const std::uint8_t, 16>(plain.data() + 16 * blk, 16),
                      std::span<std::uint8_t, 16>(clean.data() + 16 * blk, 16));

  // Select lane 5 of the first word and lane 7 of the last word (the same
  // lane twice when the backend is 64 wide).
  std::vector<std::uint64_t> mask(words, 0);
  mask.front() |= std::uint64_t{1} << 5;
  mask.back() |= std::uint64_t{1} << 7;
  std::vector<std::size_t> selected{5, (words - 1) * 64 + 7};

  const std::size_t n_dffs = batch.evaluator().dff_count();
  std::mt19937 rng(63);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t site = rng() % n_dffs;
    batch.reset();
    batch.load_key(key, setup);
    batch.evaluator().flip_dff_mask(site, mask);
    batch.evaluator().settle();

    std::vector<std::uint8_t> got(16 * lanes);
    const auto r = batch.process(plain, got, lanes, /*encrypt=*/true);
    if (!r.has_value()) continue;
    for (std::size_t blk = 0; blk < lanes; ++blk) {
      if (std::find(selected.begin(), selected.end(), blk) != selected.end()) continue;
      ASSERT_TRUE(std::equal(clean.begin() + static_cast<std::ptrdiff_t>(16 * blk),
                             clean.begin() + static_cast<std::ptrdiff_t>(16 * blk + 16),
                             got.begin() + static_cast<std::ptrdiff_t>(16 * blk)))
          << "site " << site << " mask leaked into unselected lane " << blk;
    }
  }
}

// The farm's chaos machinery against THIS backend: a classified site
// (Farm::corrupting_site) flips every lane of a live wide engine
// (Farm::inject_fault -> flip_dff), the farm's spot-check catches the
// corruption, and every response stays bit-exact. Runs once per backend through the ctest matrix.
TEST_F(NetlistBatch, ChaosInjectionHealsOnWideEngines) {
  farm::FarmConfig cfg;
  cfg.workers = 1;
  cfg.engine = aesip::engine::EngineKind::kNetlist;
  cfg.spot_check_fraction = 1.0;
  cfg.chaos_seed = 0x51de;
  farm::Farm f(cfg);

  std::mt19937 rng(71);
  farm::Key128 key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());

  auto fresh_request = [&](std::size_t blocks) {
    farm::Request req;
    req.session_id = 1;
    req.key = key;
    req.mode = farm::Mode::kEcb;
    req.encrypt = true;
    req.payload = random_bytes(blocks * 16, rng());
    return req;
  };
  const aes::Rijndael ref =
      aes::Rijndael::for_key(std::span<const std::uint8_t>(key.data(), key.size()));

  ASSERT_EQ(f.process(fresh_request(1)).worker, 0);  // warm the key

  bool detected = false;
  for (int attempt = 0; attempt < 12 && !detected; ++attempt) {
    ASSERT_TRUE(f.inject_fault(0).get().flipped)
        << "netlist engine refused the flip";
    for (int i = 0; i < 2; ++i) {
      auto req = fresh_request(3);
      const auto expect = aes::ecb_encrypt(ref, req.payload);
      const auto res = f.process(std::move(req));
      ASSERT_EQ(res.data, expect) << "corrupted bytes reached the client";
      detected |= res.replayed;
    }
  }
  EXPECT_TRUE(detected) << "no injection was ever caught by the spot-check";
}
