#include "engine/engine.hpp"

#include <algorithm>
#include <utility>

#include "core/ip_synth.hpp"

namespace aesip::engine {

const char* kind_name(EngineKind k) noexcept {
  switch (k) {
    case EngineKind::kSoftware: return "sw";
    case EngineKind::kBehavioral: return "behavioral";
    case EngineKind::kNetlist: return "netlist";
  }
  return "?";
}

std::optional<EngineKind> kind_from_name(std::string_view name) noexcept {
  if (name == "sw" || name == "software" || name == "soft") return EngineKind::kSoftware;
  if (name == "behavioral" || name == "behav" || name == "ip") return EngineKind::kBehavioral;
  if (name == "netlist" || name == "gate") return EngineKind::kNetlist;
  return std::nullopt;
}

// --- CipherEngine batch path -------------------------------------------------

std::size_t CipherEngine::check_batch_spans(std::span<const std::uint8_t> in,
                                            std::span<std::uint8_t> out) {
  if (in.size() != out.size())
    throw std::invalid_argument("CipherEngine: batch in/out sizes differ");
  if (in.size() % 16 != 0)
    throw std::invalid_argument("CipherEngine: batch must be whole 16-byte blocks");
  return in.size() / 16;
}

void CipherEngine::process_batch(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                                 bool encrypt) {
  const std::size_t n = check_batch_spans(in, out);
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = process_block(in.subspan(16 * i, 16), encrypt);
    std::copy(r.begin(), r.end(), out.begin() + static_cast<std::ptrdiff_t>(16 * i));
  }
  ++batch_stats_.calls;
  batch_stats_.blocks += n;
  batch_stats_.passes += n;  // loop engines dispatch one block per pass
}

// --- SoftwareEngine ----------------------------------------------------------

std::uint64_t SoftwareEngine::load_key(std::span<const std::uint8_t> key) {
  if (key.size() != 16 && key.size() != 24 && key.size() != 32)
    throw std::invalid_argument("SoftwareEngine: key must be 16, 24 or 32 bytes");
  ttable_.emplace(key);
  std::copy(key.begin(), key.end(), resident_key_.begin());
  resident_key_len_ = key.size();
  ++counters_.key_writes;
  return 0;
}

void SoftwareEngine::process_batch(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                                   bool encrypt) {
  const std::size_t n = check_batch_spans(in, out);
  if (!ttable_) throw std::logic_error("SoftwareEngine: no key loaded");
  const bool dec = mode_ == core::IpMode::kDecrypt || (mode_ == core::IpMode::kBoth && !encrypt);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = in.subspan(16 * i, 16);
    const auto dst = out.subspan(16 * i, 16);
    if (encrypt)
      ttable_->encrypt_block(src, dst);
    else
      ttable_->decrypt_block(src, dst);
  }
  counters_.data_writes += n;
  counters_.rounds_done += static_cast<std::uint64_t>(ttable_->rounds()) * n;
  (dec ? counters_.blocks_dec : counters_.blocks_enc) += n;
  ++batch_stats_.calls;
  batch_stats_.blocks += n;
  batch_stats_.passes += n;  // one block per table walk: still a loop engine
}

bool SoftwareEngine::key_resident(std::span<const std::uint8_t> key) const {
  return ttable_.has_value() && key.size() == resident_key_len_ &&
         std::equal(key.begin(), key.end(), resident_key_.begin());
}

std::array<std::uint8_t, 16> SoftwareEngine::do_process(std::span<const std::uint8_t> block,
                                                        bool encrypt) {
  if (!ttable_) throw std::logic_error("SoftwareEngine: no key loaded");
  std::array<std::uint8_t, 16> out{};
  if (encrypt)
    ttable_->encrypt_block(block, out);
  else
    ttable_->decrypt_block(block, out);
  const bool dec = mode_ == core::IpMode::kDecrypt || (mode_ == core::IpMode::kBoth && !encrypt);
  ++counters_.data_writes;
  counters_.rounds_done += static_cast<std::uint64_t>(ttable_->rounds());
  ++(dec ? counters_.blocks_dec : counters_.blocks_enc);
  return out;
}

// --- BehavioralEngine --------------------------------------------------------

template <class Ip>
struct BehavioralEngine::CoreOf final : Core {
  template <class... Args>
  explicit CoreOf(hdl::Simulator& sim, Args&&... ip_args)
      : ip(sim, std::forward<Args>(ip_args)...), bus(sim, ip) {
    bus.reset();
  }

  std::uint64_t load_key(std::span<const std::uint8_t> key) override { return bus.load_key(key); }
  bool key_resident(std::span<const std::uint8_t> key) const override {
    return bus.key_resident(key);
  }
  std::uint64_t rekey(std::span<const std::uint8_t> key) override { return bus.rekey(key); }
  std::array<std::uint8_t, 16> process_block(std::span<const std::uint8_t> block,
                                             bool encrypt) override {
    return bus.process_block(block, encrypt);
  }
  std::uint64_t last_latency() const noexcept override { return bus.last_latency(); }
  core::IpCounters counters() const override { return ip.counters(); }
  const core::BusCounters& bus_counters() const noexcept override { return bus.counters(); }

  Ip ip;
  core::GenericBusDriver<Ip> bus;
};

BehavioralEngine::BehavioralEngine(const arch::VariantSpec& spec, core::IpMode mode)
    : spec_(spec), mode_(mode) {
  // The MixColumn style is a gate-level distinction only; the paper's
  // RijndaelIp is the behavioral twin of both iterative netlists.
  if (spec_.is_iterative())
    core_ = std::make_unique<CoreOf<core::RijndaelIp>>(sim_, mode, spec.key_bits);
  else
    core_ = std::make_unique<CoreOf<arch::VariantIp>>(sim_, spec, mode);
}

// --- NetlistEngine -----------------------------------------------------------

std::shared_ptr<const netlist::Netlist> make_ip_netlist(core::IpMode mode, int key_bits) {
  return std::make_shared<const netlist::Netlist>(core::synthesize_ip(
      mode, netlist::SboxStyle::kRom, netlist::MixColStyle::kXtime, key_bits));
}

std::shared_ptr<const netlist::Netlist> make_variant_netlist(const arch::VariantSpec& spec,
                                                             core::IpMode mode) {
  return std::make_shared<const netlist::Netlist>(arch::synthesize_variant(spec, mode));
}

NetlistEngine::NetlistEngine(std::shared_ptr<const netlist::Netlist> nl, core::IpMode mode,
                             std::optional<netlist::BatchBackend> backend)
    : NetlistEngine(std::move(nl), arch::VariantSpec{}, mode, backend) {}

NetlistEngine::NetlistEngine(std::shared_ptr<const netlist::Netlist> nl,
                             const arch::VariantSpec& spec, core::IpMode mode,
                             std::optional<netlist::BatchBackend> backend)
    : nl_(std::move(nl)), spec_(spec), mode_(mode), drv_(*nl_, backend) {
  // Mirror BehavioralEngine's construction-time reset() pulse: one setup
  // edge plus one idle edge, so cycle counts line up from cycle 0.
  drv_.reset();
  ++counters_.setup_resets;
  ++counters_.idle_cycles;
}

std::uint64_t NetlistEngine::load_key(std::span<const std::uint8_t> key) {
  if (static_cast<int>(key.size()) * 8 != spec_.key_bits)
    throw std::invalid_argument("NetlistEngine: key must be " +
                                std::to_string(spec_.key_bits / 8) + " bytes for " + spec_.name());
  const std::uint64_t setup =
      static_cast<std::uint64_t>(spec_.key_setup_cycles(mode_));
  drv_.load_key(key, static_cast<int>(setup));
  std::copy(key.begin(), key.end(), resident_key_.begin());
  resident_key_len_ = key.size();
  ++counters_.key_writes;
  counters_.key_setup_cycles += setup;
  return setup;
}

bool NetlistEngine::key_resident(std::span<const std::uint8_t> key) const {
  return resident_key_len_ != 0 && key.size() == resident_key_len_ &&
         std::equal(key.begin(), key.end(), resident_key_.begin());
}

void NetlistEngine::run_pass(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                             std::size_t n, bool encrypt) {
  const auto r = drv_.process(in, out, n, encrypt);
  if (!r) throw std::runtime_error("NetlistEngine: data_ok never rose (gate-level hang)");
  last_latency_ = static_cast<std::uint64_t>(r->cycles);
  // The gate FSM walks the same phases the behavioral model counts; derive
  // the identical attribution from the protocol events, once per lane — a
  // pass over n lanes is n blocks of device work (cycles() agrees: the
  // driver weights each pass clock by the active lane count).
  // Iterative blocks spend 4 ByteSub32 slices + 1 MixColumn cycle per
  // round; the full-width variants do the whole round in the one wide
  // cycle counted under mix_cycles (matching VariantIp's attribution).
  const std::uint64_t bytesub_per_round =
      spec_.is_iterative() ? core::RijndaelIp::kCyclesPerRound - 1 : 0;
  const std::uint64_t rounds = static_cast<std::uint64_t>(spec_.nr());
  const bool dec = mode_ == core::IpMode::kDecrypt || (mode_ == core::IpMode::kBoth && !encrypt);
  counters_.data_writes += n;
  counters_.idle_cycles += n;  // the load edge executes in kIdle (block start)
  counters_.bytesub_cycles += rounds * bytesub_per_round * n;
  counters_.mix_cycles += rounds * n;
  counters_.rounds_done += rounds * n;
  (dec ? counters_.blocks_dec : counters_.blocks_enc) += n;
}

const char* NetlistEngine::batch_backend() const noexcept {
  return netlist::backend_name(drv_.evaluator().backend());
}

std::size_t NetlistEngine::fault_sites() const noexcept {
  return drv_.evaluator().dff_count();
}

bool NetlistEngine::inject_fault(std::size_t site) {
  if (site >= drv_.evaluator().dff_count()) return false;
  drv_.evaluator().flip_dff(site);
  return true;
}

std::array<std::uint8_t, 16> NetlistEngine::do_process(std::span<const std::uint8_t> block,
                                                       bool encrypt) {
  std::array<std::uint8_t, 16> out{};
  run_pass(block, out, 1, encrypt);  // a scalar block is a 1-lane batch
  return out;
}

void NetlistEngine::process_batch(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                                  bool encrypt) {
  const std::size_t n = check_batch_spans(in, out);
  const std::size_t lanes = batch_lanes();
  for (std::size_t off = 0; off < n; off += lanes) {
    const std::size_t take = std::min(lanes, n - off);
    run_pass(in.subspan(16 * off, 16 * take), out.subspan(16 * off, 16 * take), take, encrypt);
    ++batch_stats_.passes;
  }
  ++batch_stats_.calls;
  batch_stats_.blocks += n;
}

// --- factory -----------------------------------------------------------------

std::unique_ptr<CipherEngine> make_engine(EngineKind kind, core::IpMode mode) {
  switch (kind) {
    case EngineKind::kSoftware: return std::make_unique<SoftwareEngine>(mode);
    case EngineKind::kBehavioral: return std::make_unique<BehavioralEngine>(mode);
    case EngineKind::kNetlist: return std::make_unique<NetlistEngine>(mode);
  }
  throw std::invalid_argument("make_engine: unknown engine kind");
}

std::unique_ptr<CipherEngine> make_engine(EngineKind kind, const arch::VariantSpec& spec,
                                          core::IpMode mode) {
  switch (kind) {
    case EngineKind::kSoftware: return std::make_unique<SoftwareEngine>(mode);
    case EngineKind::kBehavioral: return std::make_unique<BehavioralEngine>(spec, mode);
    case EngineKind::kNetlist: return std::make_unique<NetlistEngine>(spec, mode);
  }
  throw std::invalid_argument("make_engine: unknown engine kind");
}

}  // namespace aesip::engine
