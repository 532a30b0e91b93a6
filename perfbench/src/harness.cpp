#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>

#include "host.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace net = aesip::net;
namespace farm = aesip::farm;
using Clock = std::chrono::steady_clock;
using aesip::obs::HistogramSnapshot;

constexpr int kFarmWorkers = 2;
constexpr std::size_t kServerWindow = 32;  // the ServerConfig default
/// An untraced run measures this many trials, each on a freshly built rig,
/// because how fast a rig runs depends on where its threads and memory
/// landed; setup_s is the median of their set-ups.
constexpr int kTrials = 6;
/// Windows are cut into slots of about this length; rates and latencies are
/// medians over slots.  A 2.5 s slot holds more than 1000 frames on the
/// slowest workload, so more than ten samples lie beyond its p99.
constexpr double kSlotSeconds = 2.5;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// Log-linear histogram: 128 linear sub-buckets per power of two (under 1%
/// resolution) in fixed memory whatever the frame rate.  Quantiles
/// interpolate linearly inside the bucket that holds the rank.
class LatencyHist {
 public:
  void record(std::uint64_t v) {
    ++counts_[index(v)];
    ++n_;
  }
  void merge(const LatencyHist& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  std::uint64_t count() const { return n_; }
  double quantile(double p) const {
    if (n_ == 0) return 0;
    const double rank = p * static_cast<double>(n_ - 1);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const std::uint64_t c = counts_[i];
      if (c == 0) continue;
      if (static_cast<double>(cum + c) > rank) {
        const std::size_t shift = i < kSub ? 0 : i / kSub - 1;
        const double lo = i < kSub ? static_cast<double>(i)
                                   : static_cast<double>((i % kSub + kSub) << shift);
        const double width = static_cast<double>(std::uint64_t{1} << shift);
        return lo + width * (rank - static_cast<double>(cum) + 0.5) / static_cast<double>(c);
      }
      cum += c;
    }
    return 0;
  }

 private:
  static constexpr std::size_t kSubBits = 7, kSub = std::size_t{1} << kSubBits;
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const std::size_t shift = static_cast<std::size_t>(63 - std::countl_zero(v)) - kSubBits;
    return std::min((shift + 1) * kSub + static_cast<std::size_t>((v >> shift) - kSub),
                    kBuckets - 1);
  }
  static constexpr std::size_t kBuckets = 32 * kSub;  // up to ~2^38 ns
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t n_ = 0;
};

/// One traced frame, keyed by (session_id, seq).
struct Span {
  std::uint64_t session = 0;
  std::uint32_t seq = 0;
  std::uint64_t submit_ns = 0;  ///< inside submit_*: encode, write, window wait
  std::uint64_t rtt_ns = 0;     ///< submit_* called -> wait() returned
};

/// Frames answered inside one slot of the measured window.
struct Slot {
  std::uint64_t frames = 0, blocks = 0;
  LatencyHist rtt;

  void merge(const Slot& o) {
    frames += o.frames;
    blocks += o.blocks;
    rtt.merge(o.rtt);
  }
};

struct Tally {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Slot> slots;  ///< verified frames answered inside the window, by slot
  std::vector<Span> spans;  ///< traced windows only

  void add_counts(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  Slot total() const {
    Slot t;
    for (const auto& s : slots) t.merge(s);
    return t;
  }
};

void report_failure(std::uint64_t session, const std::string& what) {
  static std::atomic<int> printed{0};
  if (printed.fetch_add(1, std::memory_order_relaxed) < 8)
    std::fprintf(stderr, "wirebench: session %llu: %s\n",
                 static_cast<unsigned long long>(session), what.c_str());
}

/// One client session walking its script closed-loop: keep `depth` data
/// frames in flight, collect the oldest, check it against the oracle.
class Session {
 public:
  Session(const Script& sc, net::Client& client, std::size_t depth)
      : sc_(sc), client_(client), depth_(depth) {}

  /// Issue steps until `deadline` passes (or, for the warm-up, until one
  /// lap of the script was issued), then collect what is still in flight.
  /// Frames answered between `start` and `deadline` count in the window
  /// slot they were answered in (none when `t.slots` is empty: warm-up).
  void run(Clock::time_point start, Clock::time_point deadline, bool one_lap, bool spans,
           Tally& t) {
    const std::size_t max_steps = one_lap ? sc_.steps.size() : static_cast<std::size_t>(-1);
    std::size_t issued = 0;
    while (!dead_ && issued < max_steps && Clock::now() < deadline) {
      if (q_.size() >= depth_) {
        collect(start, deadline, spans, t);
        continue;
      }
      const Step& s = sc_.steps[cursor_];
      cursor_ = (cursor_ + 1) % sc_.steps.size();
      ++issued;
      if (s.kind == StepKind::kSetKey) {
        try {
          if (keyed_)
            client_.rekey(s.key);
          else
            client_.set_key(s.key);
          keyed_ = true;
        } catch (const std::exception& e) {
          fail(std::string("key install: ") + e.what(), t);
        }
        continue;
      }
      ++t.attempted;
      const auto t0 = Clock::now();
      std::uint32_t seq = 0;
      try {
        seq = submit(s);
      } catch (const std::exception& e) {
        ++t.failed;
        fail(std::string("submit: ") + e.what(), t);
        break;
      }
      q_.push_back({seq, &s, t0, ns_between(t0, Clock::now())});
    }
    while (!q_.empty()) collect(start, deadline, spans, t);
  }

 private:
  struct InFlight {
    std::uint32_t seq;
    const Step* step;
    Clock::time_point t0;
    std::uint64_t submit_ns;
  };

  std::uint32_t submit(const Step& s) {
    switch (s.kind) {
      case StepKind::kEnc: return client_.submit_enc(s.cbc, s.iv, s.data);
      case StepKind::kDec: return client_.submit_dec(s.cbc, s.iv, s.data);
      default: return client_.submit_ctr(s.iv, s.data);
    }
  }

  void collect(Clock::time_point start, Clock::time_point deadline, bool spans, Tally& t) {
    const InFlight f = q_.front();
    q_.pop_front();
    std::vector<std::uint8_t> out;
    try {
      out = client_.wait(f.seq);
    } catch (const net::WireError& e) {
      ++t.failed;
      report_failure(client_.session_id(), e.what());
      return;
    } catch (const std::exception& e) {
      ++t.failed;
      fail(e.what(), t);
      return;
    }
    const auto t2 = Clock::now();
    if (out != f.step->expected) {
      ++t.failed;
      report_failure(client_.session_id(), "response differs from the aes:: oracle, seq " +
                                               std::to_string(f.seq));
      return;
    }
    if (t.slots.empty() || t2 >= deadline) return;
    const std::size_t k = std::min(t.slots.size() - 1,
                                   static_cast<std::size_t>(ns_between(start, t2) * t.slots.size() /
                                                            ns_between(start, deadline)));
    Slot& slot = t.slots[k];
    ++slot.frames;
    slot.blocks += f.step->blocks();
    const std::uint64_t rtt = ns_between(f.t0, t2);
    slot.rtt.record(rtt);
    if (spans) t.spans.push_back({client_.session_id(), f.seq, f.submit_ns, rtt});
  }

  /// The connection or its key state is unusable: everything in flight is lost.
  void fail(const std::string& why, Tally& t) {
    report_failure(client_.session_id(), why);
    dead_ = true;
    t.failed += q_.size();
    q_.clear();
  }

  const Script& sc_;
  net::Client& client_;
  std::size_t depth_;
  std::size_t cursor_ = 0;
  bool keyed_ = false;
  bool dead_ = false;
  std::deque<InFlight> q_;
};

/// A served farm plus its connected sessions.  Members are declared in the
/// order they must outlive each other; destroying the server drains it.
struct Rig {
  std::unique_ptr<net::Transport> transport;
  TracedTransport* traced = nullptr;
  std::shared_ptr<EngineHub> hub;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<Session> sessions;

  ~Rig() {
    for (auto& c : clients) {
      try {
        c->bye();
      } catch (const std::exception&) {
      }
    }
  }
};

/// Run every session on its own generator thread.
void drive(Rig& rig, Clock::time_point start, Clock::time_point deadline, bool one_lap,
           bool spans, std::vector<Tally>& tallies) {
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < rig.sessions.size(); ++i)
    threads.emplace_back([&, i] {
      rig.sessions[i].run(start, deadline, one_lap, spans, tallies[i]);
    });
  for (auto& th : threads) th.join();
}

/// Server construction, connect, key install and warm-up: every session runs
/// its script once, so each key, key size, frame size and lazily built
/// engine the window replays has been used before it starts.
std::unique_ptr<Rig> build_rig(const Workload& wl, Faults& faults, bool traced, Tally& totals) {
  auto rig = std::make_unique<Rig>();
  const bool drop = faults.drop_result.load() > 0;
  if (traced || drop) {
    auto t = std::make_unique<TracedTransport>(net::make_tcp_transport(), faults);
    rig->traced = t.get();
    rig->transport = std::move(t);
  } else {
    rig->transport = net::make_tcp_transport();
  }

  net::ServerConfig cfg;
  cfg.threads = 1;
  cfg.window = kServerWindow;
  cfg.admin = false;
  cfg.farm.workers = kFarmWorkers;
  cfg.farm.engine = wl.engine;
  cfg.farm.spot_check_fraction = wl.spot_check;
  if (traced || faults.flip_call.load() > 0) {
    rig->hub = std::make_shared<EngineHub>(wl.engine, faults);
    if (wl.engine == aesip::engine::EngineKind::kNetlist) rig->hub->netlist(128);
    cfg.farm.engine_factory = [hub = rig->hub] { return hub->make_engine(); };
  }
  rig->server = std::make_unique<net::Server>(*rig->transport, "127.0.0.1:0", cfg);
  rig->server->start();

  net::ClientConfig cc;
  cc.io_timeout = std::chrono::milliseconds(drop ? 2000 : 30000);
  for (std::size_t i = 0; i < wl.sessions.size(); ++i) {
    rig->clients.push_back(
        std::make_unique<net::Client>(*rig->transport, rig->server->address(), i + 1, cc));
    rig->sessions.emplace_back(wl.sessions[i], *rig->clients.back(), wl.depth);
  }
  std::vector<Tally> warm(wl.sessions.size());
  drive(*rig, Clock::now(), Clock::time_point::max(), true, false, warm);
  for (const auto& w : warm) totals.add_counts(w);
  return rig;
}

HistogramSnapshot delta(const HistogramSnapshot& end, const HistogramSnapshot& start) {
  HistogramSnapshot d;
  d.count = end.count - start.count;
  d.sum = end.sum - start.sum;
  d.max = end.max;
  for (std::size_t b = 0; b < d.buckets.size(); ++b)
    d.buckets[b] = end.buckets[b] - start.buckets[b];
  return d;
}

struct Snapshot {
  Clock::time_point t;
  net::ServerStats server;
  farm::FarmStats farm;
  Usage usage;
  std::uint64_t allocs = 0;
  IoTotals client_io, server_io;
  EngineTotals engine;
};

Snapshot snapshot(const Rig& rig) {
  Snapshot s;
  s.server = rig.server->stats();
  s.farm = rig.server->farm_stats();
  s.usage = process_usage();
  s.allocs = allocations();
  if (rig.traced) {
    s.client_io = rig.traced->client.totals();
    s.server_io = rig.traced->server.totals();
  }
  if (rig.hub) s.engine = rig.hub->totals();
  s.t = Clock::now();
  return s;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// One measured window over a built rig, cut into equal slots; `usage`
/// holds the process rusage at every slot boundary.
struct Window {
  Snapshot start, end;
  std::vector<Usage> usage;
  Tally tally;  ///< merged over sessions
  double seconds() const { return std::chrono::duration<double>(end.t - start.t).count(); }
  double slot_seconds() const { return seconds() / static_cast<double>(tally.slots.size()); }
  std::vector<double> slot_blocks_per_s() const {
    std::vector<double> v;
    for (const auto& s : tally.slots) v.push_back(static_cast<double>(s.blocks) / slot_seconds());
    return v;
  }
};

Window measure(Rig& rig, double seconds, bool spans, Tally& totals) {
  const auto slots = static_cast<std::size_t>(std::max(1.0, std::round(seconds / kSlotSeconds)));
  Window w;
  std::vector<Tally> tallies(rig.sessions.size());
  for (auto& t : tallies) t.slots.resize(slots);
  w.start = snapshot(rig);
  w.usage.push_back(w.start.usage);
  const auto length =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  const auto deadline = w.start.t + length;
  std::thread clock([&] {
    for (std::size_t k = 1; k < slots; ++k) {
      std::this_thread::sleep_until(w.start.t + length * k / slots);
      w.usage.push_back(process_usage());
    }
    std::this_thread::sleep_until(deadline);
    w.end = snapshot(rig);
    w.usage.push_back(w.end.usage);
  });
  drive(rig, w.start.t, deadline, false, spans, tallies);
  clock.join();
  w.tally.slots.resize(slots);
  for (auto& t : tallies) {
    w.tally.add_counts(t);
    for (std::size_t k = 0; k < slots; ++k) w.tally.slots[k].merge(t.slots[k]);
    w.tally.spans.insert(w.tally.spans.end(), t.spans.begin(), t.spans.end());
  }
  totals.add_counts(w.tally);
  return w;
}

double failed_frac(const Tally& totals) {
  return ratio(static_cast<double>(totals.failed), static_cast<double>(totals.attempted));
}

void print_metric(const Metric& m) {
  std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

Outcome end_to_end(const Workload& wl, const Options& opt, Faults& faults) {
  Outcome o;
  Tally totals;
  // Rates and latencies are medians over the slots of every trial, so a
  // short stall elsewhere on the host moves one slot, not the figure.
  std::vector<double> setups, bps, p50, p99, cpu;
  std::uint64_t samples = 0, fewest = ~std::uint64_t{0}, sim_cycles = 0, sim_blocks = 0;
  for (int t = 0; t < kTrials; ++t) {
    const auto t0 = Clock::now();
    auto rig = build_rig(wl, faults, false, totals);
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    const Window w = measure(*rig, opt.seconds / kTrials, false, totals);
    for (double v : w.slot_blocks_per_s()) bps.push_back(v);
    for (std::size_t k = 0; k < w.tally.slots.size(); ++k) {
      const Slot& s = w.tally.slots[k];
      p50.push_back(s.rtt.quantile(0.50) / 1e3);
      p99.push_back(s.rtt.quantile(0.99) / 1e3);
      cpu.push_back(ratio((w.usage[k + 1].cpu_s - w.usage[k].cpu_s) * 1e6,
                          static_cast<double>(s.blocks)));
      samples += s.rtt.count();
      fewest = std::min(fewest, s.rtt.count());
    }
    sim_cycles += w.end.farm.total_cycles - w.start.farm.total_cycles;
    sim_blocks += w.end.farm.blocks - w.start.farm.blocks;
  }
  o.metrics = {
      {"blocks_per_s", median(bps), "blocks/s"},
      {"latency_p50_us", median(p50), "us"},
      {"cpu_us_per_block", median(cpu), "us"},
      {"peak_rss_mb", process_usage().max_rss_mib, "MiB"},
      {"setup_s", median(setups), "s"},
      {"sim_cycles_per_block",
       ratio(static_cast<double>(sim_cycles), static_cast<double>(sim_blocks)), "cycles"},
  };
  o.attempted = totals.attempted;
  o.failed = totals.failed;

  std::printf("end-to-end %s (seed %llu, depth %zu, %d trials of %.2f s in %zu slots, %llu "
              "latency samples, at least %llu per slot)\n",
              wl.name.c_str(), static_cast<unsigned long long>(wl.seed), wl.depth, kTrials,
              opt.seconds / kTrials, bps.size(), static_cast<unsigned long long>(samples),
              static_cast<unsigned long long>(fewest));
  std::printf("  set-ups (s):");
  for (double v : setups) std::printf(" %.4f", v);
  std::printf("\n  slot blocks_per_s:");
  for (double v : bps) std::printf(" %.0f", v);
  std::printf("\n  slot latency_p99_us:");
  for (double v : p99) std::printf(" %.1f", v);
  std::printf("\n");
  for (const auto& m : o.metrics) print_metric(m);
  // Printed but not in the JSON result: see README.md, "End-to-end metrics".
  print_metric({"latency_p99_us", median(p99), "us"});
  print_metric({"failed_frac", failed_frac(totals), "ratio"});
  return o;
}

Outcome per_layer(const Workload& wl, const Options& opt, Faults& faults) {
  Outcome o;
  Tally totals;
  const double half = opt.seconds / 2;

  // Untraced half: the reference for trace.overhead_frac.  Both halves use
  // the median over their slots, like blocks_per_s.
  double untraced_bps = 0;
  {
    auto rig = build_rig(wl, faults, false, totals);
    untraced_bps = median(measure(*rig, half, false, totals).slot_blocks_per_s());
  }

  auto rig = build_rig(wl, faults, true, totals);
  count_allocations(true);
  const Window w = measure(*rig, half, true, totals);
  count_allocations(false);
  // The contract holds for every engine call of the traced rig, warm-up
  // (where the netlist workloads load all their keys) included.
  const std::uint64_t violations = rig->hub->totals().violations;
  rig.reset();
  const double traced_bps = median(w.slot_blocks_per_s());

  const Snapshot &a = w.start, &b = w.end;
  const Slot all = w.tally.total();
  const double blocks = static_cast<double>(all.blocks);
  const double frames = static_cast<double>(all.frames);
  const double window_ns = w.seconds() * 1e9;

  // Client spans.
  double rtt_sum = 0, submit_sum = 0;
  for (const auto& s : w.tally.spans) {
    rtt_sum += static_cast<double>(s.rtt_ns);
    submit_sum += static_cast<double>(s.submit_ns);
  }
  const double rtt_us = ratio(rtt_sum, frames) / 1e3;
  const double submit_us = ratio(submit_sum, frames) / 1e3;

  // Server and farm counters over the window.  Their histograms are
  // log2-bucketed: means are exact, p99s are bucket upper bounds.
  const double server_frames = static_cast<double>(b.server.data_frames - a.server.data_frames);
  const HistogramSnapshot req = delta(b.server.request_latency_us, a.server.request_latency_us);
  const HistogramSnapshot qwait = delta(b.farm.queue_wait_us, a.farm.queue_wait_us);
  const HistogramSnapshot qdepth = delta(b.farm.queue_depth, a.farm.queue_depth);
  const double farm_blocks = static_cast<double>(b.farm.blocks - a.farm.blocks);
  std::uint64_t busy_ns = 0, jobs = 0;
  for (std::size_t i = 0; i < b.farm.per_worker.size(); ++i) {
    busy_ns += b.farm.per_worker[i].busy_ns - a.farm.per_worker[i].busy_ns;
    jobs += b.farm.per_worker[i].requests - a.farm.per_worker[i].requests;
  }
  const double hits = static_cast<double>(b.farm.key_hits - a.farm.key_hits);
  const double loads = static_cast<double>(b.farm.key_loads - a.farm.key_loads);

  // Transport and engine decorators.
  const IoTotals cio = b.client_io - a.client_io, sio = b.server_io - a.server_io;
  const EngineTotals e = b.engine - a.engine;
  const double engine_ns = static_cast<double>(e.work_ns + e.load_ns);
  const bool netlist = wl.engine == aesip::engine::EngineKind::kNetlist;
  const bool behavioral = wl.engine == aesip::engine::EngineKind::kBehavioral;

  const double server_req_us = req.mean();
  // A fanned-out CTR frame is several jobs; the farm stages are per job.
  const double queue_wait_us = qwait.mean();
  const double engine_us_per_job = ratio(engine_ns, static_cast<double>(jobs)) / 1e3;
  const double farm_overhead_us = server_req_us - queue_wait_us - engine_us_per_job;
  const double server_io_us =
      ratio(static_cast<double>(sio.read_ns + sio.write_ns), frames) * 1e-3;
  const double client_read_us = ratio(static_cast<double>(cio.read_ns), frames) / 1e3;
  const double unattributed = rtt_us - (submit_us + server_req_us + server_io_us + client_read_us);

  // Ratio of two counters.
  const auto per = [](auto num, auto den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
  };
  const double us = 1e-3;  // ns -> us
  o.metrics = {
      {"net.outside_server_us_mean", rtt_us - server_req_us, "us"},
      {"net.server_request_us_mean", server_req_us, "us"},
      {"net.server_request_us_p99", static_cast<double>(req.percentile(0.99)), "us"},
      {"net.transport.calls_per_frame", per(cio.calls + sio.calls, server_frames), "calls"},
      {"net.transport.bytes_per_block", per(cio.bytes, blocks), "bytes"},
      {"net.transport.wait_us_per_frame", per(cio.wait_ns + sio.wait_ns, server_frames) * us, "us"},
      {"net.client.window_blocked_us_per_frame", submit_us, "us"},
      {"net.deferred_retries_per_frame",
       per(b.server.deferred_retries - a.server.deferred_retries, server_frames), "ratio"},
      {"farm.queue_wait_us_mean", queue_wait_us, "us"},
      {"farm.queue_wait_us_p99", static_cast<double>(qwait.percentile(0.99)), "us"},
      {"farm.queue_depth_p99", static_cast<double>(qdepth.percentile(0.99)), "jobs"},
      {"farm.worker_busy_frac", per(busy_ns, window_ns * kFarmWorkers), "ratio"},
      {"farm.key_hit_rate", ratio(hits, hits + loads), "ratio"},
      {"farm.overhead_us_per_job", farm_overhead_us, "us"},
      {"farm.ctr_chunks_per_fanout",
       per(b.farm.ctr_chunks - a.farm.ctr_chunks, b.farm.ctr_fanouts - a.farm.ctr_fanouts),
       "chunks"},
      {"engine.us_per_block", per(e.work_ns, e.blocks) * us, "us"},
      {"engine.blocks_per_call", per(e.blocks, e.calls), "blocks"},
      {"engine.lane_occupancy", per(e.blocks, e.lane_slots), "ratio"},
      {"engine.key_loads_per_kblock", per(e.loads * 1000, e.blocks), "loads"},
      {"engine.key_setup_us_per_load", per(e.load_ns, e.loads) * us, "us"},
      {"engine.latency_cycles", per(e.latency_sum, e.latency_n), "cycles"},
      {"netlist.us_per_pass", netlist ? per(e.work_ns, e.passes) * us : 0.0, "us"},
      {"netlist.ns_per_block_cycle", netlist ? per(e.work_ns, e.cycles) : 0.0, "ns"},
      {"hdl.ns_per_cycle", behavioral ? per(e.work_ns, e.cycles) : 0.0, "ns"},
      {"fleet.spot_checks_per_kblock",
       per((b.farm.spot_checks - a.farm.spot_checks) * 1000, farm_blocks), "checks"},
      {"host.allocs_per_block", per(b.allocs - a.allocs, blocks), "allocs"},
      {"host.ctx_switches_per_block", per(b.usage.ctx_switches - a.usage.ctx_switches, blocks),
       "switches"},
      {"ledger.unattributed_us", unattributed, "us"},
      {"trace.overhead_frac", 1.0 - ratio(traced_bps, untraced_bps), "ratio"},
      {"failed_frac", failed_frac(totals), "ratio"},
  };
  if (violations) {
    std::fprintf(stderr, "wirebench: %llu cycle-contract violations (Table 2: 5*Nr per block, "
                         "4*Nr decrypt key setup)\n",
                 static_cast<unsigned long long>(violations));
    o.correct = false;
  }
  o.attempted = totals.attempted;
  o.failed = totals.failed;

  std::printf("ledger %s (seed %llu, traced %.2f s window, %llu frames; means per frame, us)\n",
              wl.name.c_str(), static_cast<unsigned long long>(wl.seed), w.seconds(),
              static_cast<unsigned long long>(all.frames));
  std::printf("  %-28s %10.3f\n", "client round trip", rtt_us);
  std::printf("  %-28s %10.3f\n", "  client.submit", submit_us);
  std::printf("  %-28s %10.3f\n", "  server.request", server_req_us);
  std::printf("  %-28s %10.3f\n", "    farm.queue_wait", queue_wait_us);
  std::printf("  %-28s %10.3f\n", "    engine", engine_us_per_job);
  std::printf("  %-28s %10.3f\n", "    farm.overhead", farm_overhead_us);
  std::printf("  %-28s %10.3f\n", "  server.transport_io", server_io_us);
  std::printf("  %-28s %10.3f\n", "  client.transport_read", client_read_us);
  std::printf("  %-28s %10.3f\n", "  unattributed", unattributed);
  std::printf("per-layer %s\n", wl.name.c_str());
  for (const auto& m : o.metrics) print_metric(m);
  return o;
}

}  // namespace

Outcome run(const Workload& wl, const Options& opt) {
  Faults faults;
  faults.flip_call = opt.flip_call;
  faults.drop_result = opt.drop_result;
  faults.skew_setup = opt.skew_setup;
  Outcome o = opt.trace ? per_layer(wl, opt, faults) : end_to_end(wl, opt, faults);
  if (o.failed) o.correct = false;
  return o;
}

}  // namespace perfbench
