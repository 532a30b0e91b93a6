// Fleet management: the farm as a *mutable* population of cores.
//
// Everything below the farm treats a worker's engine as fixed for the
// process lifetime. This layer drops that assumption and manages the farm
// the way an operator manages a rack of FPGA boards:
//
//   * write_status_json — the admin plane's fleet health JSON, rendered
//     from Farm::stats(); FarmStats is the only fleet snapshot.
//
//   * ChaosInjector — SEU-driven chaos testing: flips netlist DFF state in
//     a live NetlistEngine mid-traffic. Sites are chosen from the shared
//     gate netlist by standby-upset classification (seu/live.hpp), so an
//     injection is *provably corrupting* — exactly the fault the farm's
//     spot-check policy must catch and heal. Deterministic per seed.
//
// The control plane itself — hot-swapping a worker's engine (sw <->
// behavioral <-> netlist) under live traffic, quarantining and resuming
// workers, injecting faults — is Farm's future-based API (swap_engine,
// set_worker_enabled, inject_fault); net::Server drives it asynchronously.
//
// Thread safety: ChaosInjector is a plain call-through object over Farm's
// thread-safe control plane; each instance may be used from one thread at
// a time (the server's event loop, a CLI, a test).
#pragma once

#include <cstdint>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "farm/farm.hpp"

namespace aesip::fleet {

/// The fleet health JSON the admin plane answers kAdminStatus with: the
/// reconfiguration counters of `s`, swap-pause p50/max in us, and one
/// {worker, engine, enabled, blocks} row per worker. `node` (the cluster
/// node id) labels the object for roll-ups; empty omits the key.
void write_status_json(std::ostream& os, const farm::FarmStats& s, const std::string& node);

/// SEU-driven chaos: inject corrupting standby upsets into live engines.
class ChaosInjector {
 public:
  /// Sentinel: pick a classified-corrupting site automatically.
  static constexpr std::size_t kAutoSite = ~std::size_t{0};

  struct Event {
    int worker = -1;
    std::size_t site = 0;
    bool injected = false;  ///< false when the target engine had no state to flip
  };

  ChaosInjector(farm::Farm& farm, std::uint32_t seed) : farm_(farm), rng_(seed) {}

  /// Flip state in `worker`'s engine (-1 = random worker). With kAutoSite
  /// the site comes from a lazily-built list of standby-corrupting DFFs on
  /// the farm's shared netlist; a farm that never built a netlist engine
  /// gets site 0 (and `injected` reports whether anything flipped).
  Event inject(int worker = -1, std::size_t site = kAutoSite);

  /// A standby-corrupting DFF site on the farm's shared netlist (the list
  /// is classified lazily on first call); 0 when no netlist exists. Public
  /// so async callers (the server's admin plane) can pair it with
  /// Farm::inject_fault directly instead of blocking in inject().
  std::size_t corrupting_site();

  const std::vector<Event>& events() const noexcept { return events_; }

 private:
  farm::Farm& farm_;
  std::mt19937 rng_;
  bool sites_scanned_ = false;
  std::vector<std::size_t> corrupting_sites_;
  std::vector<Event> events_;
};

}  // namespace aesip::fleet
