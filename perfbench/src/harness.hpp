// The measured run: an in-process net::Server over TCP on 127.0.0.1, four
// net::Client sessions driven closed-loop by one generator thread each, and
// the oracle check of every response.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct Options {
  double seconds = 10;
  bool trace = false;
  std::uint64_t flip_call = 0;    ///< fault: flip the output of this engine call
  std::uint64_t drop_result = 0;  ///< fault: drop this result frame on the client side
  std::uint64_t skew_setup = 0;   ///< fault: misreport this traced key setup's cycles
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< data frames submitted
  std::uint64_t failed = 0;     ///< mismatched, refused, timed out or unanswered
  std::vector<Metric> metrics;
};

/// Untraced: the end-to-end metrics.  Traced: an untraced half-window, then
/// a traced half-window that yields the per-layer metrics and the ledger.
Outcome run(const Workload& wl, const Options& opt);

}  // namespace perfbench
