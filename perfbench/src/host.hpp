// Host-side measurements: process rusage, the allocation counter behind the
// benchmark's own global operator new, and the host record every run prints
// so figures from different machines stay attributable.  The record carries
// the hypervisor steal share over the run, the main cause of run-to-run
// spread on a shared VM, so two sets of runs can be checked for comparable
// host load.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Usage {
  double cpu_s = 0;                  ///< user + sys
  std::uint64_t ctx_switches = 0;    ///< voluntary + involuntary
  double max_rss_mib = 0;
};
Usage process_usage();

/// Allocations through the global operator new while counting is on.
void count_allocations(bool on);
std::uint64_t allocations();

struct HostRecord {
  long nproc = 0;
  unsigned hardware_concurrency = 0;
  int probe_threads = 0;
  double spin_speedup = 0;  ///< probe_threads-thread spin loop vs one thread
  std::string batch_backend;
  std::size_t batch_lanes = 0;
  std::string compiler;
  std::string build_type;
  std::string git_rev;
  double steal_frac = -1;  ///< share of host CPU time stolen during the run; -1 = unknown
};
HostRecord host_record(const std::string& git_rev);

/// The aggregate "cpu" line of /proc/stat, in clock ticks (zeros when absent).
struct CpuTimes {
  std::uint64_t steal = 0, total = 0;
};
CpuTimes host_cpu_times();
/// Stolen share of all host CPU time between two readings; -1 when unknown.
double steal_frac(const CpuTimes& a, const CpuTimes& b);
std::string to_json(const HostRecord& h);

}  // namespace perfbench
