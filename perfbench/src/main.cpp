// wirebench: the repository's wire-to-engine benchmark (see ../README.md).
//
//   wirebench --workload NAME --seed N --seconds S --trace 0|1 [--git-rev REV] [--depth D]
//   wirebench --workload NAME --seed N --dump-inputs
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
// The exit code is 0 only when every frame matched the aes:: oracle and, in
// the traced run, every engine call met the paper's cycle contract.
// --depth overrides the workload's frames in flight per session (for
// sweep_depth.py).  Fault flags for the benchmark's own tests: --inject-flip
// K flips one byte of the K-th engine call's output; --inject-drop K drops
// the K-th result frame before the client sees it.  Either must make the
// run fail.  With --trace 1, --inject-skew K reports the traced rig's K-th
// key setup one cycle long, which the cycle-contract check must catch.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "host.hpp"
#include "netlist/batch_backend.hpp"
#include "workload.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "wirebench: %s\n"
               "usage: wirebench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--git-rev REV] [--depth D] [--inject-flip K] [--inject-drop K] "
               "[--inject-skew K] [--dump-inputs]\n",
               msg);
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, git_rev;
  std::uint64_t seed = 0, depth = 0;
  bool have_seed = false, dump = false;
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--dump-inputs") {
      dump = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v, nullptr, 10), have_seed = true;
    else if (a == "--seconds") opt.seconds = std::strtod(v, nullptr);
    else if (a == "--trace") opt.trace = std::string(v) == "1";
    else if (a == "--git-rev") git_rev = v;
    else if (a == "--depth") depth = std::strtoull(v, nullptr, 10);
    else if (a == "--inject-flip") opt.flip_call = std::strtoull(v, nullptr, 10);
    else if (a == "--inject-drop") opt.drop_result = std::strtoull(v, nullptr, 10);
    else if (a == "--inject-skew") opt.skew_setup = std::strtoull(v, nullptr, 10);
    else return usage(("unknown option " + a).c_str());
  }
  if (workload.empty() || !have_seed) return usage("--workload and --seed are required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  try {
    const std::size_t lanes =
        aesip::netlist::backend_lanes(aesip::netlist::resolve_backend({}));
    perfbench::Workload wl = perfbench::make_workload(workload, seed, lanes);
    if (depth) wl.depth = depth;
    if (dump) {
      const auto d = perfbench::digest(wl);
      std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"bytes_digest\": \"%016llx\", "
                  "\"shape_digest\": \"%016llx\", \"steps\": %zu, \"blocks\": %zu}\n",
                  wl.name.c_str(), static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(d.bytes),
                  static_cast<unsigned long long>(d.shape), d.steps, d.blocks);
      return 0;
    }

    perfbench::HostRecord host = perfbench::host_record(git_rev);
    const perfbench::CpuTimes cpu0 = perfbench::host_cpu_times();
    const perfbench::Outcome o = perfbench::run(wl, opt);
    host.steal_frac = perfbench::steal_frac(cpu0, perfbench::host_cpu_times());
    std::printf("{\"host\": %s}\n", perfbench::to_json(host).c_str());

    std::string line = "{\"correct\": ";
    line += o.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(o.attempted);
    line += ", \"failed\": " + std::to_string(o.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < o.metrics.size(); ++i) {
      const auto& m = o.metrics[i];
      if (i) line += ", ";
      line += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
              m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return o.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wirebench: %s\n", e.what());
    return 2;
  }
}
