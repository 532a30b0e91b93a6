#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "netlist/batch_backend.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Replacing the global allocation functions counts every allocation in the
// process (library code included); array and nothrow forms forward here.
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

namespace {

/// Peak resident set of this process image in KiB: VmHWM from
/// /proc/self/status.  getrusage's ru_maxrss survives execve, so under a
/// launcher it reports the launcher's peak when that is larger.
long peak_rss_kib(const rusage& ru) {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f))
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    std::fclose(f);
    if (kib >= 0) return kib;
  }
  return ru.ru_maxrss;  // Linux reports KiB
}

}  // namespace

Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.max_rss_mib = static_cast<double>(peak_rss_kib(ru)) / 1024.0;
  return u;
}

void count_allocations(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

namespace {

/// Wall seconds for `threads` threads each running the same integer loop.
double spin_seconds(int threads) {
  constexpr std::uint64_t kIters = 20'000'000;
  std::atomic<std::uint64_t> sink{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&sink, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(t);
      for (std::uint64_t i = 0; i < kIters; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  for (auto& th : pool) th.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

HostRecord host_record(const std::string& git_rev) {
  HostRecord h;
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  h.hardware_concurrency = std::thread::hardware_concurrency();
  h.probe_threads = static_cast<int>(std::clamp<long>(h.nproc, 1, 4));
  // Best of three: a probe disturbed by another process reads too slow.
  double one = spin_seconds(1), many = spin_seconds(h.probe_threads);
  for (int i = 0; i < 2; ++i) {
    one = std::min(one, spin_seconds(1));
    many = std::min(many, spin_seconds(h.probe_threads));
  }
  h.spin_speedup = many > 0 ? h.probe_threads * one / many : 0;
  const auto backend = aesip::netlist::resolve_backend({});
  h.batch_backend = aesip::netlist::backend_name(backend);
  h.batch_lanes = aesip::netlist::backend_lanes(backend);
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "gcc " __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.git_rev = git_rev.empty() ? "unknown" : git_rev;
  return h;
}

CpuTimes host_cpu_times() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return t;
  // cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already inside user and nice, so it is not added again.
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double steal_frac(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return -1;
  return static_cast<double>(b.steal - a.steal) / static_cast<double>(b.total - a.total);
}

std::string to_json(const HostRecord& h) {
  char buf[768];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %ld, \"hardware_concurrency\": %u, \"spin_probe_threads\": %d, "
                "\"spin_speedup\": %.3f, \"batch_backend\": \"%s\", \"batch_lanes\": %zu, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", \"git_rev\": \"%s\", "
                "\"steal_frac\": %.4f}",
                h.nproc, h.hardware_concurrency, h.probe_threads, h.spin_speedup,
                h.batch_backend.c_str(), h.batch_lanes, h.compiler.c_str(),
                h.build_type.c_str(), h.git_rev.c_str(), h.steal_frac);
  return buf;
}

}  // namespace perfbench
