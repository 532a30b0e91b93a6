#include "fleet/fleet.hpp"

#include "report/json.hpp"
#include "seu/live.hpp"

namespace aesip::fleet {

// --- admin status --------------------------------------------------------------

void write_status_json(std::ostream& os, const farm::FarmStats& s, const std::string& node) {
  report::JsonWriter j(os);
  j.begin_object();
  if (!node.empty()) j.key("node").value(node);
  j.key("workers").value(s.workers);
  j.key("workers_enabled").value(s.workers_enabled);
  j.key("batch_backend").value(s.batch_backend);
  j.key("batch_lanes").value(s.batch_lanes);
  j.key("swaps").value(s.swaps);
  j.key("heals").value(s.heals);
  j.key("quarantines").value(s.quarantines);
  j.key("spot_checks").value(s.spot_checks);
  j.key("spot_mismatches").value(s.spot_mismatches);
  j.key("replayed_jobs").value(s.replayed_jobs);
  j.key("spot_boosts").value(s.spot_boosts);
  j.key("spot_boost_checks").value(s.spot_boost_checks);
  j.key("workers_boosted").value(s.workers_boosted);
  j.key("sessions_migrated").value(s.sessions_migrated);
  j.key("swap_pause_p50_us").value(static_cast<double>(s.swap_pause_us.percentile(0.50)));
  j.key("swap_pause_max_us").value(static_cast<double>(s.swap_pause_us.max));
  j.key("per_worker").begin_array();
  for (std::size_t i = 0; i < s.per_worker.size(); ++i) {
    j.begin_object();
    j.key("worker").value(static_cast<int>(i));
    j.key("engine").value(s.per_worker[i].engine);
    j.key("enabled").value(s.per_worker[i].enabled);
    j.key("blocks").value(s.per_worker[i].blocks);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

// --- ChaosInjector -----------------------------------------------------------

std::size_t ChaosInjector::corrupting_site() {
  if (!sites_scanned_) {
    sites_scanned_ = true;
    // Classify a handful of provably-corrupting standby sites on the shared
    // gate graph (deterministic per seed). The scan is the expensive step,
    // so it runs once and only if a netlist exists to scan.
    if (const auto nl = farm_.shared_netlist())
      corrupting_sites_ = seu::find_standby_sites(*nl, seu::StandbyEffect::kCorrupting,
                                                  /*count=*/4, rng_());
  }
  if (corrupting_sites_.empty()) return 0;  // nothing classified: inject() reports the truth
  return corrupting_sites_[rng_() % corrupting_sites_.size()];
}

ChaosInjector::Event ChaosInjector::inject(int worker, std::size_t site) {
  Event e;
  e.worker = worker >= 0 ? worker
                         : static_cast<int>(rng_() % static_cast<std::uint32_t>(
                                                         farm_.config().workers));
  e.site = site == kAutoSite ? corrupting_site() : site;
  e.injected = farm_.inject_fault(e.worker, e.site).get();
  events_.push_back(e);
  return e;
}

}  // namespace aesip::fleet
