// The round-engine variant family swept into an area–throughput Pareto
// front (docs/variants.md).
//
// Every member of arch::VariantSpec::family() — the paper's iterative
// core, the round-unrolled core and the 2/5/10-stage loop-folded
// pipelines, in both MixColumn styles — is pushed through the real flow:
//
//   synthesize  -> techmap::map_to_luts     => logic elements (the paper's
//                                              Table 2 area unit)
//   gate netlist -> GateDriver              => measured single-block
//                                              latency and streamed
//                                              cycles/block (multiple
//                                              blocks in flight on the
//                                              pipelined cores)
//
// Nothing is taken from the declared schedule except to CHECK it: each
// variant must be bit-exact against aes::Rijndael and cycle-conformant to
// its own VariantSpec contract (latency, and first-load-edge -> last-ok
// = latency + (B-1) * issue interval when streamed).
//
// Gates (tools/check_bench.sh, `pareto` stem):
//   * >= 3 non-dominated points (the front is a real curve, not a knee),
//   * the paper's iterative core holds the LC minimum,
//   * the best pipelined core streams >= 2x the paper core's blocks/sec,
//   * every row bit-exact and cycle-conformant.
//
// A second sweep drives the paper's iterative core across the three
// Rijndael key sizes (AES-128/192/256): same synthesize -> techmap ->
// gate-netlist flow, keyed with the FIPS-197 Appendix C keys.  Its gates:
// key-setup cycles strictly increasing in key size (the 4*Nr inverse
// schedule: 40/48/56), lone-block latency exactly 5*Nr (50/60/70), and
// every row bit-exact — which also proves the declared setup budget is
// sufficient, since an under-provisioned schedule corrupts the output.
//
// Results go to stdout and BENCH_pareto.json (aesip-bench-v1 envelope).
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "aes/cipher.hpp"
#include "arch/variant.hpp"
#include "core/gate_driver.hpp"
#include "engine/engine.hpp"
#include "report/json.hpp"
#include "techmap/techmap.hpp"

namespace arch = aesip::arch;
namespace core = aesip::core;
namespace txm = aesip::techmap;
using aesip::aes::Rijndael;

namespace {

constexpr double kClockNs = 14.0;   // the paper's Acex1K Table 2 clock
constexpr std::size_t kStreamBlocks = 32;

struct VariantRow {
  arch::VariantSpec spec;
  std::string name;
  // Area (techmap, same flow as the Table 2 reproduction).
  std::size_t logic_elements = 0;
  std::size_t luts = 0;
  std::size_t dffs = 0;
  std::size_t roms = 0;
  // Measured schedule (gate-level, Table 1 protocol).
  int latency_cycles = 0;       ///< lone block, load edge -> data_ok
  int stream_cycles = 0;        ///< kStreamBlocks blocks, first load -> last ok
  double issue_cycles = 0;      ///< measured steady-state cycles/block
  double blocks_per_sec = 0;    ///< streamed, at kClockNs
  double mbps = 0;
  // Contract checks.
  bool bit_exact = false;
  bool cycle_conformant = false;
  bool on_front = false;
};

/// Synthesize, map and drive one family member; fills everything but
/// on_front (a cross-row property).
VariantRow measure_variant(const arch::VariantSpec& spec) {
  VariantRow row;
  row.spec = spec;
  row.name = spec.name();

  const auto nl = arch::synthesize_variant(spec, core::IpMode::kBoth);
  const auto mapped = txm::map_to_luts(nl);
  row.logic_elements = mapped.stats.logic_elements;
  row.luts = mapped.stats.luts;
  row.dffs = mapped.stats.dffs;
  row.roms = mapped.stats.roms;

  // FIPS-197 Appendix C key bytes (00 01 02 ... up to the key length) work
  // for every geometry; the plaintext is Appendix C's 00112233...
  std::array<std::uint8_t, 32> key_raw{};
  for (std::size_t i = 0; i < key_raw.size(); ++i) key_raw[i] = static_cast<std::uint8_t>(i);
  const auto key = std::span<const std::uint8_t>(key_raw).first(
      static_cast<std::size_t>(spec.key_bits / 8));
  std::array<std::uint8_t, 16> pt{};
  for (std::size_t i = 0; i < pt.size(); ++i) pt[i] = static_cast<std::uint8_t>(0x11 * i);
  const Rijndael ref = Rijndael::for_key(key);
  std::array<std::uint8_t, 16> want{};
  ref.encrypt_block(pt, want);

  core::GateDriver<aesip::netlist::Evaluator> drv(nl);
  drv.reset();
  drv.load_key(key, spec.key_setup_cycles(core::IpMode::kBoth));

  // Bit-exactness: FIPS-197 Appendix C both directions, then a random
  // stream checked block for block against the software reference.
  bool exact = true;
  const auto enc = drv.process(pt, /*encrypt=*/true);
  exact = exact && enc && enc->data == want;
  row.latency_cycles = enc ? enc->cycles : -1;
  const auto dec = enc ? drv.process(enc->data, /*encrypt=*/false)
                       : std::optional<core::GateDriver<aesip::netlist::Evaluator>::BlockResult>{};
  exact = exact && dec && dec->data == pt;

  std::mt19937 rng(2026);
  std::vector<std::uint8_t> in(16 * kStreamBlocks), out(16 * kStreamBlocks),
      expect(16 * kStreamBlocks);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng());
  for (std::size_t i = 0; i < kStreamBlocks; ++i)
    ref.encrypt_block(std::span(in).subspan(16 * i, 16), std::span(expect).subspan(16 * i, 16));
  const auto sr = drv.stream(in, out, kStreamBlocks, /*encrypt=*/true);
  exact = exact && sr && out == expect;
  row.bit_exact = exact;
  row.stream_cycles = sr ? sr->cycles : -1;

  // The declared-schedule contract: lone-block latency, and the streamed
  // total must be exactly latency + (B-1) * issue interval.
  const int want_latency = spec.block_latency_cycles();
  const int want_stream = want_latency + static_cast<int>(kStreamBlocks - 1) *
                                             spec.issue_interval_cycles();
  row.cycle_conformant = row.latency_cycles == want_latency && row.stream_cycles == want_stream;

  row.issue_cycles = kStreamBlocks > 1 ? static_cast<double>(row.stream_cycles - row.latency_cycles) /
                                             static_cast<double>(kStreamBlocks - 1)
                                       : static_cast<double>(row.latency_cycles);
  row.blocks_per_sec = row.issue_cycles > 0 ? 1e9 / (kClockNs * row.issue_cycles) : 0;
  row.mbps = row.blocks_per_sec * 128.0 / 1e6;
  return row;
}

/// Non-dominated in (minimize LC, maximize blocks/sec).
void mark_pareto_front(std::vector<VariantRow>& rows) {
  for (auto& r : rows) {
    r.on_front = true;
    for (const auto& o : rows) {
      if (&o == &r) continue;
      const bool no_worse = o.logic_elements <= r.logic_elements &&
                            o.blocks_per_sec >= r.blocks_per_sec;
      const bool better = o.logic_elements < r.logic_elements ||
                          o.blocks_per_sec > r.blocks_per_sec;
      if (no_worse && better) {
        r.on_front = false;
        break;
      }
    }
  }
}

void print_and_dump() {
  std::vector<VariantRow> rows;
  for (const auto& spec : arch::VariantSpec::family()) {
    std::printf("measuring %-12s ...\n", spec.name().c_str());
    rows.push_back(measure_variant(spec));
  }
  mark_pareto_front(rows);

  // --- the Table-2-style matrix ---------------------------------------------
  std::printf("\n=== variant family: area vs throughput @ %.0f ns clock ===\n", kClockNs);
  std::printf("  %-13s %6s %6s %5s %8s %8s %9s %10s %5s %5s %s\n", "variant", "LC", "LUT",
              "DFF", "latency", "cy/blk", "blocks/s", "Mbps", "exact", "cycle", "front");
  for (const auto& r : rows)
    std::printf("  %-13s %6zu %6zu %5zu %8d %8.1f %9.0f %10.1f %5s %5s %s\n", r.name.c_str(),
                r.logic_elements, r.luts, r.dffs, r.latency_cycles, r.issue_cycles,
                r.blocks_per_sec, r.mbps, r.bit_exact ? "yes" : "NO",
                r.cycle_conformant ? "yes" : "NO", r.on_front ? "*" : "");

  // --- gates -----------------------------------------------------------------
  const VariantRow* paper = nullptr;
  const VariantRow* best_pipe = nullptr;
  std::size_t front_size = 0;
  bool all_exact = true, all_conformant = true;
  std::size_t min_lc = ~std::size_t{0};
  for (const auto& r : rows) {
    if (r.name == "iter-xtime") paper = &r;
    if (r.spec.round_arch == arch::RoundArch::kPipelined &&
        (!best_pipe || r.blocks_per_sec > best_pipe->blocks_per_sec))
      best_pipe = &r;
    if (r.on_front) ++front_size;
    all_exact = all_exact && r.bit_exact;
    all_conformant = all_conformant && r.cycle_conformant;
    min_lc = std::min(min_lc, r.logic_elements);
  }
  const bool paper_lc_min = paper && paper->logic_elements == min_lc;
  const double pipe_speedup =
      paper && best_pipe && paper->blocks_per_sec > 0
          ? best_pipe->blocks_per_sec / paper->blocks_per_sec
          : 0;
  const bool meets = front_size >= 3 && paper_lc_min && pipe_speedup >= 2.0 && all_exact &&
                     all_conformant;
  std::printf("\n  front size %zu (>= 3), paper LC min: %s, pipelined speedup %.1fx (>= 2), "
              "bit-exact: %s, cycle-conformant: %s -> %s\n\n",
              front_size, paper_lc_min ? "yes" : "NO", pipe_speedup,
              all_exact ? "all" : "NO", all_conformant ? "all" : "NO",
              meets ? "PASS" : "FAIL");

  // --- the key-size sweep: the paper core at AES-128/192/256 ----------------
  std::vector<VariantRow> krows;
  for (const char* nm : {"iter-xtime", "iter-xtime@192", "iter-xtime@256"}) {
    const auto spec = arch::VariantSpec::parse(nm);
    std::printf("measuring %-13s ...\n", nm);
    krows.push_back(measure_variant(*spec));
  }
  std::printf("\n=== key-size sweep: iterative core, AES-128/192/256 ===\n");
  std::printf("  %-14s %4s %3s %6s %9s %8s %8s %10s %5s %5s\n", "variant", "key", "Nr", "LC",
              "key-setup", "latency", "cy/blk", "Mbps", "exact", "cycle");
  for (const auto& r : krows)
    std::printf("  %-14s %4d %3d %6zu %9d %8d %8.1f %10.1f %5s %5s\n", r.name.c_str(),
                r.spec.key_bits, r.spec.nr(), r.logic_elements,
                r.spec.key_setup_cycles(core::IpMode::kBoth), r.latency_cycles, r.issue_cycles,
                r.mbps, r.bit_exact ? "yes" : "NO", r.cycle_conformant ? "yes" : "NO");

  bool ks_monotone = true, ks_latency_5nr = true, ks_exact = true, ks_conformant = true;
  for (std::size_t i = 0; i < krows.size(); ++i) {
    const auto& r = krows[i];
    if (i > 0 && r.spec.key_setup_cycles(core::IpMode::kBoth) <=
                     krows[i - 1].spec.key_setup_cycles(core::IpMode::kBoth))
      ks_monotone = false;
    ks_latency_5nr = ks_latency_5nr && r.latency_cycles == 5 * r.spec.nr();
    ks_exact = ks_exact && r.bit_exact;
    ks_conformant = ks_conformant && r.cycle_conformant;
  }
  const bool ks_meets = ks_monotone && ks_latency_5nr && ks_exact && ks_conformant;
  std::printf("\n  key-setup monotone (40 < 48 < 56): %s, latency = 5*Nr: %s, "
              "bit-exact: %s, cycle-conformant: %s -> %s\n\n",
              ks_monotone ? "yes" : "NO", ks_latency_5nr ? "yes" : "NO",
              ks_exact ? "all" : "NO", ks_conformant ? "all" : "NO",
              ks_meets ? "PASS" : "FAIL");

  std::ofstream jf("BENCH_pareto.json");
  aesip::report::JsonWriter j(jf);
  aesip::report::begin_bench_envelope(j, "pareto", 2);
  j.begin_object();  // config
  j.key("clock_ns").value(kClockNs);
  j.key("stream_blocks").value(kStreamBlocks);
  j.key("mode").value("both");
  j.end_object();

  j.key("variants").begin_array();
  for (const auto& r : rows) {
    j.begin_object();
    j.key("variant").value(r.name);
    j.key("stages").value(r.spec.stages());
    j.key("logic_elements").value(r.logic_elements);
    j.key("luts").value(r.luts);
    j.key("dffs").value(r.dffs);
    j.key("roms").value(r.roms);
    j.key("latency_cycles").value(r.latency_cycles);
    j.key("issue_interval_cycles").value(r.issue_cycles);
    j.key("declared_latency_cycles").value(r.spec.block_latency_cycles());
    j.key("declared_issue_cycles").value(r.spec.issue_interval_cycles());
    j.key("blocks_in_flight").value(r.spec.blocks_in_flight());
    j.key("key_setup_cycles").value(r.spec.key_setup_cycles(core::IpMode::kBoth));
    j.key("stream_cycles").value(r.stream_cycles);
    j.key("blocks_per_sec").value(r.blocks_per_sec);
    j.key("mbps").value(r.mbps);
    j.key("bit_exact").value(r.bit_exact);
    j.key("cycle_conformant").value(r.cycle_conformant);
    j.key("on_front").value(r.on_front);
    j.end_object();
  }
  j.end_array();

  j.key("key_sizes").begin_array();
  for (const auto& r : krows) {
    j.begin_object();
    j.key("variant").value(r.name);
    j.key("key_bits").value(r.spec.key_bits);
    j.key("rounds").value(r.spec.nr());
    j.key("logic_elements").value(r.logic_elements);
    j.key("luts").value(r.luts);
    j.key("dffs").value(r.dffs);
    j.key("key_setup_cycles").value(r.spec.key_setup_cycles(core::IpMode::kBoth));
    j.key("latency_cycles").value(r.latency_cycles);
    j.key("declared_latency_cycles").value(r.spec.block_latency_cycles());
    j.key("blocks_per_sec").value(r.blocks_per_sec);
    j.key("mbps").value(r.mbps);
    j.key("bit_exact").value(r.bit_exact);
    j.key("cycle_conformant").value(r.cycle_conformant);
    j.end_object();
  }
  j.end_array();

  j.key("key_size_sweep").begin_object();
  j.key("key_setup_monotone").value(ks_monotone);
  j.key("latency_is_5nr").value(ks_latency_5nr);
  j.key("all_bit_exact").value(ks_exact);
  j.key("all_cycle_conformant").value(ks_conformant);
  j.key("meets_target").value(ks_meets);
  j.end_object();

  j.key("pareto").begin_object();
  j.key("front").begin_array();
  for (const auto& r : rows)
    if (r.on_front) j.value(r.name);
  j.end_array();
  j.key("front_size").value(front_size);
  j.key("paper_lc_is_min").value(paper_lc_min);
  j.key("pipelined_speedup_x").value(pipe_speedup);
  j.key("all_bit_exact").value(all_exact);
  j.key("all_cycle_conformant").value(all_conformant);
  j.key("meets_target").value(meets);
  j.end_object();
  j.end_object();
  std::printf("wrote BENCH_pareto.json\n\n");
}

/// Host-side throughput of the behavioral twins (the farm's default
/// engine): how fast each variant *simulates*, which is what the farm's
/// wall-clock throughput is made of.
void BM_VariantBehavioral(benchmark::State& state) {
  const auto family = arch::VariantSpec::family();
  const auto& spec = family[static_cast<std::size_t>(state.range(0))];
  auto e = aesip::engine::make_engine(aesip::engine::EngineKind::kBehavioral, spec);
  const std::array<std::uint8_t, 16> key{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                                         0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  e->load_key(key);
  std::array<std::uint8_t, 16> block{};
  for (auto _ : state) {
    const auto r = e->process_block(block, true);
    benchmark::DoNotOptimize(r);
    block = r;
  }
  state.SetLabel(spec.name());
  state.counters["sim_cycles_per_block"] =
      static_cast<double>(e->cycles()) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_VariantBehavioral)->DenseRange(0, 6)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_and_dump();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
