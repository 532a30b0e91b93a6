#include "trace.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>

#include "net/wire.hpp"

namespace perfbench {
namespace net = aesip::net;
namespace engine = aesip::engine;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Decrement a one-shot countdown; true exactly once, when it reaches 0.
bool fire(std::atomic<std::uint64_t>& countdown) {
  std::uint64_t v = countdown.load(std::memory_order_relaxed);
  while (v > 0 && !countdown.compare_exchange_weak(v, v - 1, std::memory_order_relaxed)) {
  }
  return v == 1;
}

class TracedConn final : public net::Conn {
 public:
  TracedConn(std::unique_ptr<net::Conn> inner, IoLedger& led,
             std::atomic<std::uint64_t>* drop_result)
      : inner_(std::move(inner)), led_(led), drop_(drop_result) {}

  net::IoResult read_some(std::span<std::uint8_t> buf) override {
    if (!drop_) return timed_read(buf);
    if (ready_.empty()) {
      std::uint8_t tmp[4096];
      const net::IoResult r = timed_read(tmp);
      if (r.status != net::IoStatus::kOk) return r;
      decoder_.feed(std::span<const std::uint8_t>(tmp, r.n));
      if (!pass_frames()) return {0, net::IoStatus::kError};
      if (ready_.empty()) return {0, net::IoStatus::kWouldBlock};
    }
    const std::size_t n = std::min(buf.size(), ready_.size());
    std::memcpy(buf.data(), ready_.data(), n);
    ready_.erase(ready_.begin(), ready_.begin() + static_cast<std::ptrdiff_t>(n));
    return {n, net::IoStatus::kOk};
  }

  net::IoResult write_some(std::span<const std::uint8_t> buf) override {
    const std::uint64_t t0 = now_ns();
    const net::IoResult r = inner_->write_some(buf);
    account(r, t0, led_.write_ns);
    return r;
  }

  bool wait_readable(std::chrono::milliseconds timeout) override {
    if (!ready_.empty()) return true;
    const std::uint64_t t0 = now_ns();
    const bool ok = inner_->wait_readable(timeout);
    bump(led_.wait_ns, now_ns() - t0);
    return ok;
  }
  bool wait_writable(std::chrono::milliseconds timeout) override {
    const std::uint64_t t0 = now_ns();
    const bool ok = inner_->wait_writable(timeout);
    bump(led_.wait_ns, now_ns() - t0);
    return ok;
  }
  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }
  int native_handle() const noexcept override { return inner_->native_handle(); }

 private:
  net::IoResult timed_read(std::span<std::uint8_t> buf) {
    const std::uint64_t t0 = now_ns();
    const net::IoResult r = inner_->read_some(buf);
    account(r, t0, led_.read_ns);
    return r;
  }
  void account(const net::IoResult& r, std::uint64_t t0, Counter& ns) {
    bump(ns, now_ns() - t0);
    bump(led_.calls);
    if (r.status == net::IoStatus::kOk) bump(led_.bytes, r.n);
  }
  /// Re-encode every complete frame into ready_, dropping the chosen
  /// result; false when the stream is corrupt.
  bool pass_frames() {
    net::Frame f;
    for (;;) {
      switch (decoder_.next(f)) {
        case net::FrameDecoder::Status::kNeedMore: return true;
        case net::FrameDecoder::Status::kBad: return false;
        case net::FrameDecoder::Status::kFrame: break;
      }
      if (f.op == net::Op::kResult && fire(*drop_)) continue;
      const std::vector<std::uint8_t> bytes = net::encode_frame(f);
      ready_.insert(ready_.end(), bytes.begin(), bytes.end());
    }
  }

  std::unique_ptr<net::Conn> inner_;
  IoLedger& led_;
  std::atomic<std::uint64_t>* drop_;
  net::FrameDecoder decoder_;
  std::vector<std::uint8_t> ready_;
};

class TracedListener final : public net::Listener {
 public:
  TracedListener(std::unique_ptr<net::Listener> inner, IoLedger& led)
      : inner_(std::move(inner)), led_(led) {}

  std::unique_ptr<net::Conn> accept() override {
    auto c = inner_->accept();
    if (!c) return nullptr;
    return std::make_unique<TracedConn>(std::move(c), led_, nullptr);
  }
  void wait(std::chrono::milliseconds timeout) override {
    const std::uint64_t t0 = now_ns();
    inner_->wait(timeout);
    bump(led_.wait_ns, now_ns() - t0);
  }
  std::string address() const override { return inner_->address(); }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<net::Listener> inner_;
  IoLedger& led_;
};

int rounds_for(int key_bits) { return key_bits / 32 + 6; }

class TracedEngine final : public engine::CipherEngine {
 public:
  TracedEngine(EngineHub& hub, std::shared_ptr<EngineLedger> led)
      : hub_(hub), led_(std::move(led)) {
    cur_ = &inner_for(128);
  }

  engine::EngineKind kind() const noexcept override { return hub_.kind(); }
  aesip::core::IpMode mode() const noexcept override { return aesip::core::IpMode::kBoth; }

  std::uint64_t load_key(std::span<const std::uint8_t> key) override {
    return timed_load(select(key), key);
  }
  bool key_resident(std::span<const std::uint8_t> key) const override {
    const auto it = inner_.find(static_cast<int>(key.size()) * 8);
    return it != inner_.end() && it->second->key_resident(key);
  }
  std::uint64_t rekey(std::span<const std::uint8_t> key) override {
    engine::CipherEngine& e = select(key);
    return e.key_resident(key) ? 0 : timed_load(e, key);
  }

  void process_batch(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                     bool encrypt) override {
    const auto passes0 = cur_->batch_stats().passes;
    const std::uint64_t c0 = cur_->cycles();
    const std::uint64_t t0 = now_ns();
    cur_->process_batch(in, out, encrypt);
    const std::uint64_t dt = now_ns() - t0;
    if (!out.empty() && fire(hub_.faults().flip_call)) out[0] ^= 0x01;
    account(in.size() / 16, cur_->batch_stats().passes - passes0, cur_->cycles() - c0, dt);
  }
  std::size_t batch_lanes() const noexcept override { return cur_->batch_lanes(); }
  const char* batch_backend() const noexcept override { return cur_->batch_backend(); }

  std::uint64_t cycles() const noexcept override {
    std::uint64_t c = 0;
    for (const auto& [bits, e] : inner_) c += e->cycles();
    return c;
  }
  std::uint64_t last_latency() const noexcept override { return cur_->last_latency(); }
  aesip::core::IpCounters counters() const override { return cur_->counters(); }
  aesip::hdl::Simulator* simulator() noexcept override { return cur_->simulator(); }

 protected:
  std::array<std::uint8_t, 16> do_process(std::span<const std::uint8_t> block,
                                          bool encrypt) override {
    const auto passes0 = cur_->batch_stats().passes;
    const std::uint64_t c0 = cur_->cycles();
    const std::uint64_t t0 = now_ns();
    auto r = cur_->process_block(block, encrypt);
    const std::uint64_t dt = now_ns() - t0;
    if (fire(hub_.faults().flip_call)) r[0] ^= 0x01;
    const std::uint64_t passes = cur_->batch_stats().passes - passes0;
    account(1, passes ? passes : 1, cur_->cycles() - c0, dt);
    return r;
  }

 private:
  bool cycle_engine() const { return hub_.kind() != engine::EngineKind::kSoftware; }

  engine::CipherEngine& inner_for(int bits) {
    auto& slot = inner_[bits];
    if (!slot) {
      aesip::arch::VariantSpec spec;
      spec.key_bits = bits;
      const auto mode = aesip::core::IpMode::kBoth;
      switch (hub_.kind()) {
        case engine::EngineKind::kSoftware:
          slot = std::make_unique<engine::SoftwareEngine>(mode);
          break;
        case engine::EngineKind::kBehavioral:
          slot = std::make_unique<engine::BehavioralEngine>(spec, mode);
          break;
        case engine::EngineKind::kNetlist:
          slot = std::make_unique<engine::NetlistEngine>(hub_.netlist(bits), spec, mode);
          break;
      }
    }
    return *slot;
  }

  engine::CipherEngine& select(std::span<const std::uint8_t> key) {
    cur_bits_ = static_cast<int>(key.size()) * 8;
    cur_ = &inner_for(cur_bits_);
    return *cur_;
  }

  std::uint64_t timed_load(engine::CipherEngine& e, std::span<const std::uint8_t> key) {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t setup = e.load_key(key);
    bump(led_->load_ns, now_ns() - t0);
    bump(led_->loads);
    const std::uint64_t seen = fire(hub_.faults().skew_setup) ? setup + 1 : setup;
    // Table 2: the decrypt-capable core spends 4*Nr cycles on key setup.
    if (cycle_engine() && seen != 4u * static_cast<unsigned>(rounds_for(cur_bits_)))
      bump(led_->violations);
    return setup;
  }

  void account(std::uint64_t blocks, std::uint64_t passes, std::uint64_t cycles,
               std::uint64_t dt) {
    bump(led_->calls);
    bump(led_->blocks, blocks);
    bump(led_->passes, passes);
    bump(led_->lane_slots, passes * cur_->batch_lanes());
    bump(led_->work_ns, dt);
    bump(led_->cycles, cycles);
    if (cycle_engine()) {
      // Table 2: one block, 5 cycles per round, Nr rounds.
      const std::uint64_t lat = cur_->last_latency();
      bump(led_->latency_sum, lat);
      bump(led_->latency_n);
      if (lat != 5u * static_cast<unsigned>(rounds_for(cur_bits_))) bump(led_->violations);
    }
  }

  EngineHub& hub_;
  std::shared_ptr<EngineLedger> led_;
  std::map<int, std::unique_ptr<engine::CipherEngine>> inner_;
  engine::CipherEngine* cur_ = nullptr;
  int cur_bits_ = 128;
};

}  // namespace

TracedTransport::TracedTransport(std::unique_ptr<net::Transport> inner, Faults& faults)
    : inner_(std::move(inner)), faults_(faults) {}

std::unique_ptr<net::Listener> TracedTransport::listen(const std::string& address) {
  return std::make_unique<TracedListener>(inner_->listen(address), server);
}

std::unique_ptr<net::Conn> TracedTransport::connect(const std::string& address) {
  const bool filter = faults_.drop_result.load(std::memory_order_relaxed) > 0;
  return std::make_unique<TracedConn>(inner_->connect(address), client,
                                      filter ? &faults_.drop_result : nullptr);
}

EngineTotals EngineTotals::operator-(const EngineTotals& o) const {
  EngineTotals d;
  d.calls = calls - o.calls;
  d.blocks = blocks - o.blocks;
  d.passes = passes - o.passes;
  d.lane_slots = lane_slots - o.lane_slots;
  d.work_ns = work_ns - o.work_ns;
  d.loads = loads - o.loads;
  d.load_ns = load_ns - o.load_ns;
  d.cycles = cycles - o.cycles;
  d.latency_sum = latency_sum - o.latency_sum;
  d.latency_n = latency_n - o.latency_n;
  d.violations = violations - o.violations;
  return d;
}

EngineTotals& EngineTotals::operator+=(const EngineTotals& o) {
  calls += o.calls;
  blocks += o.blocks;
  passes += o.passes;
  lane_slots += o.lane_slots;
  work_ns += o.work_ns;
  loads += o.loads;
  load_ns += o.load_ns;
  cycles += o.cycles;
  latency_sum += o.latency_sum;
  latency_n += o.latency_n;
  violations += o.violations;
  return *this;
}

EngineTotals EngineLedger::totals() const {
  EngineTotals t;
  t.calls = read(calls);
  t.blocks = read(blocks);
  t.passes = read(passes);
  t.lane_slots = read(lane_slots);
  t.work_ns = read(work_ns);
  t.loads = read(loads);
  t.load_ns = read(load_ns);
  t.cycles = read(cycles);
  t.latency_sum = read(latency_sum);
  t.latency_n = read(latency_n);
  t.violations = read(violations);
  return t;
}

EngineHub::EngineHub(engine::EngineKind kind, Faults& faults) : kind_(kind), faults_(faults) {}

std::shared_ptr<const aesip::netlist::Netlist> EngineHub::netlist(int key_bits) {
  std::lock_guard lk(mu_);
  auto& nl = netlists_[key_bits];
  if (!nl) nl = engine::make_ip_netlist(aesip::core::IpMode::kBoth, key_bits);
  return nl;
}

std::unique_ptr<engine::CipherEngine> EngineHub::make_engine() {
  auto led = std::make_shared<EngineLedger>();
  {
    std::lock_guard lk(mu_);
    ledgers_.push_back(led);
  }
  return std::make_unique<TracedEngine>(*this, std::move(led));
}

EngineTotals EngineHub::totals() const {
  std::lock_guard lk(mu_);
  EngineTotals t;
  for (const auto& l : ledgers_) t += l->totals();
  return t;
}

}  // namespace perfbench
