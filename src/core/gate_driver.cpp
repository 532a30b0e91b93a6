#include "core/gate_driver.hpp"

#include <algorithm>
#include <stdexcept>

namespace aesip::core {

template <class Ev>
void GateDriver<Ev>::bind(const netlist::Netlist& nl) {
  for (const auto& pi : nl.inputs()) by_name_[pi.name] = pi.net;
  for (const auto& po : nl.outputs()) out_by_name_[po.name] = po.net;
  for (int i = 0; i < 128; ++i) {
    din_.push_back(by_name_.at("din[" + std::to_string(i) + "]"));
    dout_.push_back(out_by_name_.at("dout[" + std::to_string(i) + "]"));
  }
  setup_ = input("setup");
  wr_key_ = input("wr_key");
  wr_data_ = input("wr_data");
  if (has_input("encdec")) encdec_ = input("encdec");
  if (const auto it = out_by_name_.find("data_ok"); it != out_by_name_.end()) data_ok_ = it->second;
  drive(setup_, false);
  drive(wr_data_, false);
  drive(wr_key_, false);
  if (encdec_ != netlist::kNoNet) drive(encdec_, true);
  ev_.settle();
}

template <class Ev>
void GateDriver<Ev>::set_din(std::span<const std::uint8_t> in, std::size_t n) {
  if constexpr (kScalar) {
    (void)n;
    for (int k = 0; k < 16; ++k)
      for (int b = 0; b < 8; ++b)
        ev_.set(din_[static_cast<std::size_t>(8 * k + b)],
                (in[static_cast<std::size_t>(k)] >> b) & 1);
  } else {
    using Word = netlist::BatchEvaluator::Word;
    constexpr std::size_t kWordLanes = netlist::BatchEvaluator::kBaseLanes;
    const std::size_t stride = ev_.stride();
    for (int k = 0; k < 16; ++k)
      for (int b = 0; b < 8; ++b) {
        for (std::size_t g = 0; g < stride; ++g) {
          Word w = 0;
          for (std::size_t l = 0; l < kWordLanes; ++l) {
            const std::size_t lane = g * kWordLanes + l;
            const std::size_t src = lane < n ? lane : 0;
            w |= Word{(in[16 * src + static_cast<std::size_t>(k)] >> b) & 1U} << l;
          }
          ev_.set_word(din_[static_cast<std::size_t>(8 * k + b)], w, g);
        }
      }
  }
}

template <class Ev>
void GateDriver<Ev>::read_dout(std::span<std::uint8_t> out, std::size_t n) const {
  if constexpr (kScalar) {
    (void)n;
    for (int k = 0; k < 16; ++k) {
      std::uint8_t byte = 0;
      for (int b = 0; b < 8; ++b)
        if (ev_.get(dout_[static_cast<std::size_t>(8 * k + b)]))
          byte |= static_cast<std::uint8_t>(1U << b);
      out[static_cast<std::size_t>(k)] = byte;
    }
  } else {
    constexpr std::size_t kWordLanes = netlist::BatchEvaluator::kBaseLanes;
    for (std::size_t i = 0; i < 16 * n; ++i) out[i] = 0;
    for (int k = 0; k < 16; ++k)
      for (int b = 0; b < 8; ++b) {
        for (std::size_t g = 0; g * kWordLanes < n; ++g) {
          const auto w = ev_.word(dout_[static_cast<std::size_t>(8 * k + b)], g);
          const std::size_t top = std::min(n - g * kWordLanes, kWordLanes);
          for (std::size_t l = 0; l < top; ++l)
            if ((w >> l) & 1U)
              out[16 * (g * kWordLanes + l) + static_cast<std::size_t>(k)] |=
                  static_cast<std::uint8_t>(1U << b);
        }
      }
  }
}

template <class Ev>
void GateDriver<Ev>::reset() {
  drive(setup_, true);
  clock();
  drive(setup_, false);
  clock();
}

template <class Ev>
void GateDriver<Ev>::load_key(std::span<const std::uint8_t> key, bool needs_setup) {
  // The iterative inverse-schedule pass costs 4 generation cycles per round
  // (4*Nr = 40/48/56), with Nr inferred from the key length.
  const int nr = static_cast<int>(key.size()) / 4 + 6;
  load_key(key, needs_setup ? 4 * nr : 0);
}

template <class Ev>
void GateDriver<Ev>::load_key(std::span<const std::uint8_t> key, int setup_cycles) {
  // Keys wider than the 128-bit din ride consecutive wr_key beats
  // (words 0..3, then words 4..Nk-1 in the low lanes); each beat
  // replicates into every lane.
  for (std::size_t off = 0; off < key.size(); off += 16) {
    std::array<std::uint8_t, 16> beat{};
    const std::size_t n = std::min<std::size_t>(16, key.size() - off);
    for (std::size_t i = 0; i < n; ++i) beat[i] = key[off + i];
    set_din(beat);
    drive(wr_key_, true);
    clock();
    drive(wr_key_, false);
  }
  for (int i = 0; i < setup_cycles; ++i) clock();
}

template <class Ev>
std::optional<typename GateDriver<Ev>::PassResult> GateDriver<Ev>::process(
    std::span<const std::uint8_t> in, std::span<std::uint8_t> out, std::size_t n, bool encrypt,
    int watchdog_cycles) {
  if (n < 1 || n > lanes())
    throw std::invalid_argument("GateDriver: batch size must be 1.." + std::to_string(lanes()));
  if (in.size() < 16 * n || out.size() < 16 * n)
    throw std::invalid_argument("GateDriver: need 16 bytes per lane");
  if (encdec_ != netlist::kNoNet) drive(encdec_, encrypt);
  set_din(in, n);
  drive(wr_data_, true);
  clock(n);  // the load edge, n blocks wide
  drive(wr_data_, false);
  for (int i = 1; i <= watchdog_cycles; ++i) {
    clock(n);
    if (data_ok()) {
      read_dout(out, n);
      return PassResult{i};
    }
  }
  return std::nullopt;
}

template <class Ev>
std::optional<typename GateDriver<Ev>::BlockResult> GateDriver<Ev>::process(
    std::span<const std::uint8_t> block, bool encrypt, int watchdog_cycles) {
  BlockResult r{};
  const auto pass = process(block, r.data, 1, encrypt, watchdog_cycles);
  if (!pass) return std::nullopt;
  r.cycles = pass->cycles;
  return r;
}

template <class Ev>
std::optional<typename GateDriver<Ev>::StreamResult> GateDriver<Ev>::stream(
    std::span<const std::uint8_t> in, std::span<std::uint8_t> out, std::size_t blocks,
    bool encrypt, int watchdog_cycles)
  requires kScalar
{
  if (in.size() < 16 * blocks || out.size() < 16 * blocks)
    throw std::invalid_argument("GateDriver: need 16 bytes per block");
  if (blocks == 0) return StreamResult{0};
  if (encdec_ != netlist::kNoNet) drive(encdec_, encrypt);
  const bool has_ready = out_by_name_.count("in_ready") != 0;
  const netlist::NetId ready_net = has_ready ? out_by_name_.at("in_ready") : netlist::kNoNet;

  std::size_t next = 0;      // blocks written onto the bus
  std::size_t admitted = 0;  // blocks the core has captured out of Data_In
  std::size_t done = 0;      // data_ok strobes collected
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  bool first_fed = false;
  std::uint64_t guard = 0;

  while (done < blocks) {
    bool feed = next < blocks;
    if (feed) {
      if (has_ready) {
        ev_.settle();
        feed = ev_.get(ready_net);
      } else {
        feed = next == admitted;  // the paper core's single pending slot
      }
    }
    bool fed_idle = false;
    if (feed) {
      set_din(in.subspan(16 * next, 16));
      drive(wr_data_, true);
      fed_idle = !has_ready && admitted == done;  // idle core admits on the load edge
      ++next;
    } else {
      drive(wr_data_, false);
    }
    const bool was_first = feed && !first_fed;
    first_fed = first_fed || feed;
    clock();
    drive(wr_data_, false);
    if (was_first) first = cycles_;
    if (fed_idle) ++admitted;
    if (data_ok()) {
      read_dout(out.subspan(16 * done, 16));
      ++done;
      last = cycles_;
      if (admitted < next) ++admitted;  // the finish edge admits a pending block
    }
    if (++guard > static_cast<std::uint64_t>(watchdog_cycles) * blocks) return std::nullopt;
  }
  return StreamResult{static_cast<int>(last - first)};
}

template class GateDriver<netlist::Evaluator>;
template class GateDriver<netlist::BatchEvaluator>;

}  // namespace aesip::core
