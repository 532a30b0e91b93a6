// Fleet management: the farm as a *mutable* population of cores.
//
// Everything below the farm treats a worker's engine as fixed for the
// process lifetime. This layer drops that assumption and manages the farm
// the way an operator manages a rack of FPGA boards:
//
//   * FleetController — a blocking facade over Farm's future-based
//     control plane: hot-swap a worker's engine (sw <-> behavioral <->
//     netlist) under live traffic, quarantine and resume workers, inject
//     faults. net::Server drives the same Farm calls asynchronously.
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
// Thread safety: FleetController and ChaosInjector are plain call-through
// objects over Farm's thread-safe control plane; each instance may be used
// from one thread at a time (the server's event loop, a CLI, a test).
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

/// Blocking admin facade over the farm's control plane.
class FleetController {
 public:
  explicit FleetController(farm::Farm& farm) : farm_(farm) {}

  /// Hot-swap one worker's engine; blocks until the worker executed it.
  farm::SwapReport swap(int worker, engine::EngineKind kind) {
    return farm_.swap_engine(worker, kind).get();
  }
  /// Hot-swap one worker to a specific round-engine variant of `kind`
  /// (e.g. netlist pipe5-xtime); see arch::VariantSpec::parse for names.
  farm::SwapReport swap(int worker, engine::EngineKind kind, const arch::VariantSpec& variant) {
    return farm_.swap_engine(worker, kind, variant).get();
  }
  /// Swap every worker: all control jobs are queued first (the swaps
  /// overlap), then joined. The farm never drains.
  std::vector<farm::SwapReport> swap_all(engine::EngineKind kind);
  /// Swap every worker to one variant of `kind`, overlapped the same way.
  std::vector<farm::SwapReport> swap_all(engine::EngineKind kind,
                                         const arch::VariantSpec& variant);

  void quarantine(int worker) { farm_.set_worker_enabled(worker, false); }
  void resume(int worker) { farm_.set_worker_enabled(worker, true); }

  /// Flip DFF `site` in `worker`'s live engine; false when the engine kind
  /// has no gate-level state (sw/behavioral).
  bool inject(int worker, std::size_t site) { return farm_.inject_fault(worker, site).get(); }

  farm::Farm& farm() noexcept { return farm_; }

 private:
  farm::Farm& farm_;
};

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
