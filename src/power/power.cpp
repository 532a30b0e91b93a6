#include "power/power.hpp"

#include <random>

#include "core/gate_driver.hpp"

namespace aesip::power {

using netlist::Cell;
using netlist::CellKind;
using netlist::kNoNet;
using netlist::Netlist;
using netlist::NetId;

const PowerParams& acex1k_power() {
  static const PowerParams p{
      /*vdd=*/2.5,
      /*c_gate_pf=*/0.045,
      /*c_route_pf=*/0.030,
      /*c_clock_pf=*/0.020,
      /*c_io_pf=*/8.0,
      /*e_rom_access_pj=*/14.0,
      /*static_mw=*/15.0};
  return p;
}

const PowerParams& cyclone_power() {
  static const PowerParams p{
      /*vdd=*/1.5,
      /*c_gate_pf=*/0.022,
      /*c_route_pf=*/0.016,
      /*c_clock_pf=*/0.010,
      /*c_io_pf=*/6.0,
      /*e_rom_access_pj=*/5.0,
      /*static_mw=*/35.0};  // finer process leaks more
  return p;
}

const PowerParams& params_for(const fpga::Device& device) {
  return device.family == fpga::Family::kAcex1k ? acex1k_power() : cyclone_power();
}

ActivityProbe::ActivityProbe(const Netlist& nl, const PowerParams& params)
    : nl_(nl), params_(params) {
  const std::size_t n = nl.net_count();
  previous_.assign(n, 0);
  net_cap_pf_.assign(n, 0.0f);
  is_ff_out_.assign(n, 0);
  is_io_.assign(n, 0);
  rom_of_net_.assign(n, -1);

  // Fanout-derived capacitance, matching the timing model's view of nets.
  std::vector<int> fanout(n, 0);
  for (const Cell& c : nl.cells())
    for (int k = 0; k < c.fanin_count(); ++k)
      if (c.in[static_cast<std::size_t>(k)] != kNoNet) ++fanout[c.in[static_cast<std::size_t>(k)]];
  for (const auto& rom : nl.roms())
    for (const NetId a : rom.addr) ++fanout[a];
  for (const auto& po : nl.outputs()) ++fanout[po.net];

  for (std::size_t i = 0; i < n; ++i)
    net_cap_pf_[i] = static_cast<float>(params.c_gate_pf + params.c_route_pf * fanout[i]);

  for (const Cell& c : nl.cells())
    if (c.kind == CellKind::kDff) {
      is_ff_out_[c.out] = 1;
      ++ff_count_;
    }
  for (const auto& pi : nl.inputs()) is_io_[pi.net] = 1;
  for (const auto& po : nl.outputs()) is_io_[po.net] = 1;
  for (std::size_t ri = 0; ri < nl.roms().size(); ++ri)
    for (const NetId a : nl.roms()[ri].addr)
      rom_of_net_[a] = static_cast<std::int32_t>(ri);
}

void ActivityProbe::sample(std::span<const std::uint8_t> net_values) {
  std::vector<std::uint8_t> rom_read(nl_.roms().size(), 0);
  for (std::size_t i = 0; i < net_values.size(); ++i) {
    if (net_values[i] == previous_[i]) continue;
    ++activity_.net_toggles;
    activity_.weighted_cap_pf += net_cap_pf_[i];
    if (is_ff_out_[i]) ++activity_.ff_toggles;
    if (is_io_[i]) ++activity_.io_toggles;
    if (rom_of_net_[i] >= 0) rom_read[static_cast<std::size_t>(rom_of_net_[i])] = 1;
    previous_[i] = net_values[i];
  }
  for (const std::uint8_t read : rom_read) activity_.rom_reads += read;
  ++activity_.cycles;
}

PowerReport estimate(const Activity& activity, const PowerParams& params, double clock_mhz,
                     std::size_t ff_count, int cycles_per_block) {
  PowerReport r;
  r.clock_mhz = clock_mhz;
  if (activity.cycles == 0) return r;
  const double cycles = static_cast<double>(activity.cycles);
  const double f_hz = clock_mhz * 1e6;
  const double v2 = params.vdd * params.vdd;

  // Dynamic switching: 0.5 * C * V^2 per transition, at the measured
  // transitions-per-cycle rate.
  const double cap_per_cycle_pf = activity.weighted_cap_pf / cycles;
  const double logic_w = 0.5 * cap_per_cycle_pf * 1e-12 * v2 * f_hz;
  // Split the breakdown in proportion to the gate/route capacitance shares.
  const double route_share =
      params.c_route_pf / (params.c_gate_pf + params.c_route_pf);
  r.routing_mw = logic_w * route_share * 1e3;
  r.logic_mw = logic_w * (1.0 - route_share) * 1e3;

  // Clock tree: every flip-flop's clock input swings twice per cycle.
  r.clock_mw = static_cast<double>(ff_count) * params.c_clock_pf * 1e-12 * v2 * f_hz * 1e3;

  // Embedded-memory accesses.
  const double reads_per_cycle = static_cast<double>(activity.rom_reads) / cycles;
  r.memory_mw = reads_per_cycle * params.e_rom_access_pj * 1e-12 * f_hz * 1e3;

  // Pads: heavy capacitance on the 261-pin parallel bus.
  const double io_toggles_per_cycle = static_cast<double>(activity.io_toggles) / cycles;
  r.io_mw = 0.5 * io_toggles_per_cycle * params.c_io_pf * 1e-12 * v2 * f_hz * 1e3;

  r.static_mw = params.static_mw;
  r.total_mw = r.logic_mw + r.routing_mw + r.clock_mw + r.memory_mw + r.io_mw + r.static_mw;

  const double block_s = cycles_per_block / f_hz;
  r.energy_per_block_nj = r.total_mw * 1e-3 * block_s * 1e9;
  r.energy_per_bit_pj = r.energy_per_block_nj * 1e3 / 128.0;
  return r;
}

PowerReport profile_ip(const Netlist& ip_netlist, const PowerParams& params, double clock_mhz,
                       int blocks, std::uint32_t seed) {
  core::GateDriver<netlist::Evaluator> drv(ip_netlist);
  ActivityProbe probe(ip_netlist, params);
  std::mt19937 rng(seed);

  drv.reset();
  std::array<std::uint8_t, 16> key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  drv.load_key(key, /*needs_setup=*/false);

  std::size_t ff_count = 0;
  for (const Cell& c : ip_netlist.cells())
    if (c.kind == CellKind::kDff) ++ff_count;

  // Measure over the processing of `blocks` random blocks at full rate.
  for (int i = 0; i < blocks; ++i) {
    std::array<std::uint8_t, 16> block{};
    for (auto& b : block) b = static_cast<std::uint8_t>(rng());
    drv.set_din(block);
    drv.set("wr_data", true);
    drv.clock();
    probe.sample(drv.evaluator().net_values());
    drv.set("wr_data", false);
    for (int c = 0; c < 50; ++c) {
      drv.clock();
      probe.sample(drv.evaluator().net_values());
    }
  }
  return estimate(probe.activity(), params, clock_mhz, ff_count);
}

}  // namespace aesip::power
