#include "core/rans.hh"

#include <algorithm>
#include <stdexcept>

namespace szp {

namespace {

// Standard 32-bit byte-wise rANS constants (ryg_rans layout): state stays
// in [kLow, kLow << 8) between symbols.
constexpr std::uint32_t kLow = 1u << 23;

}  // namespace

RansModel RansModel::build(std::span<const std::uint64_t> counts) {
  if (counts.empty() || counts.size() > 65536) {
    throw std::invalid_argument("RansModel: alphabet size must be in [1, 65536]");
  }
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) {
    throw std::invalid_argument("RansModel: all symbol counts are zero");
  }

  RansModel m;
  m.freq_.assign(counts.size(), 0);

  // Normalization to kProbScale with a floor of 1 for every occurring
  // symbol (an occurring symbol with frequency 0 would be unencodable).
  std::uint32_t assigned = 0;
  std::size_t live = 0;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    if (counts[s] == 0) continue;
    ++live;
    const double exact =
        static_cast<double>(counts[s]) * kProbScale / static_cast<double>(total);
    auto f = static_cast<std::uint32_t>(exact);
    if (f == 0) f = 1;
    m.freq_[s] = f;
    assigned += f;
    remainders.emplace_back(exact - static_cast<double>(f), s);
  }
  if (live > kProbScale) {
    throw std::invalid_argument(
        "RansModel: more live symbols than probability slots (raise kProbBits)");
  }

  if (assigned < kProbScale) {
    // Hand out the shortfall by largest remainder.
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::size_t idx = 0;
    while (assigned < kProbScale) {
      ++m.freq_[remainders[idx % remainders.size()].second];
      ++assigned;
      ++idx;
    }
  } else if (assigned > kProbScale) {
    // Claw the overshoot back from the largest frequencies (never below 1).
    std::vector<std::size_t> by_freq;
    for (std::size_t s = 0; s < counts.size(); ++s) {
      if (m.freq_[s] > 1) by_freq.push_back(s);
    }
    std::sort(by_freq.begin(), by_freq.end(),
              [&](std::size_t a, std::size_t b) { return m.freq_[a] > m.freq_[b]; });
    std::uint32_t excess = assigned - kProbScale;
    // Proportional first pass, then one-by-one for the tail.
    for (const std::size_t s : by_freq) {
      if (excess == 0) break;
      const std::uint32_t take = std::min(excess, m.freq_[s] - 1);
      m.freq_[s] -= take;
      excess -= take;
    }
    if (excess != 0) {
      throw std::logic_error("RansModel: normalization failed to converge");
    }
  }

  m.finalize();
  return m;
}

void RansModel::finalize() {
  cum_.assign(freq_.size() + 1, 0);
  for (std::size_t s = 0; s < freq_.size(); ++s) cum_[s + 1] = cum_[s] + freq_[s];
  if (cum_.back() != kProbScale) {
    throw std::logic_error("RansModel: frequencies do not sum to the probability scale");
  }
  slot_to_symbol_.assign(kProbScale, 0);
  for (std::size_t s = 0; s < freq_.size(); ++s) {
    for (std::uint32_t k = cum_[s]; k < cum_[s + 1]; ++k) {
      slot_to_symbol_[k] = static_cast<std::uint16_t>(s);
    }
  }
}

void RansModel::serialize(ByteWriter& w) const {
  w.put<std::uint32_t>(static_cast<std::uint32_t>(freq_.size()));
  std::uint32_t live = 0;
  for (const auto f : freq_) live += f > 0 ? 1u : 0u;
  w.put<std::uint32_t>(live);
  for (std::size_t s = 0; s < freq_.size(); ++s) {
    if (freq_[s] > 0) {
      w.put<std::uint16_t>(static_cast<std::uint16_t>(s));
      w.put<std::uint16_t>(static_cast<std::uint16_t>(freq_[s]));
    }
  }
}

RansModel RansModel::deserialize(ByteReader& r) {
  r.set_segment("rans model");
  const auto alphabet = r.get<std::uint32_t>();
  if (alphabet == 0 || alphabet > 65536) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "rans model",
                      "alphabet size " + std::to_string(alphabet) + " outside [1, 65536]");
  }
  RansModel m;
  m.freq_.assign(alphabet, 0);
  const auto live = r.get<std::uint32_t>();
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < live; ++i) {
    const auto sym = r.get<std::uint16_t>();
    const auto f = r.get<std::uint16_t>();
    if (sym >= alphabet || f == 0 || m.freq_[sym] != 0) {
      throw DecodeError(DecodeErrorKind::kCorruptStream, "rans model",
                        "corrupt frequency entry " + std::to_string(i) + " of " +
                            std::to_string(live));
    }
    m.freq_[sym] = f;
    total += f;
  }
  if (total != kProbScale) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "rans model",
                      "frequencies sum to " + std::to_string(total) + ", not the scale " +
                          std::to_string(kProbScale));
  }
  m.finalize();
  return m;
}

std::vector<std::uint8_t> rans_encode(std::span<const std::uint16_t> symbols,
                                      const RansModel& model) {
  // Encode in reverse so decoding streams forward.
  std::vector<std::uint8_t> reversed;
  reversed.reserve(symbols.size() / 2 + 8);
  std::uint32_t x = kLow;
  for (std::size_t i = symbols.size(); i-- > 0;) {
    const std::uint16_t s = symbols[i];
    if (s >= model.alphabet_size() || model.freq(s) == 0) {
      throw std::invalid_argument("rans_encode: symbol not in model");
    }
    const std::uint32_t f = model.freq(s);
    // Renormalize: keep x below the point where the update would overflow.
    const std::uint32_t x_max = ((kLow >> RansModel::kProbBits) << 8) * f;
    while (x >= x_max) {
      reversed.push_back(static_cast<std::uint8_t>(x & 0xff));
      x >>= 8;
    }
    x = ((x / f) << RansModel::kProbBits) + (x % f) + model.cum(s);
  }
  // Flush the 32-bit state.
  for (int k = 0; k < 4; ++k) {
    reversed.push_back(static_cast<std::uint8_t>(x & 0xff));
    x >>= 8;
  }
  return {reversed.rbegin(), reversed.rend()};
}

void rans_decode_into(std::span<const std::uint8_t> bytes, const RansModel& model,
                      std::span<std::uint16_t> out) {
  std::size_t pos = 0;
  const auto next_byte = [&]() -> std::uint32_t {
    if (pos >= bytes.size()) {
      throw DecodeError(DecodeErrorKind::kTruncated, "rans stream",
                        "state renormalization ran past the " + std::to_string(bytes.size()) +
                            "-byte stream");
    }
    return bytes[pos++];
  };

  std::uint32_t x = 0;
  for (int k = 0; k < 4; ++k) x = (x << 8) | next_byte();

  constexpr std::uint32_t kMask = RansModel::kProbScale - 1;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint32_t slot = x & kMask;
    const std::uint16_t s = model.symbol_at(slot);
    out[i] = s;
    x = model.freq(s) * (x >> RansModel::kProbBits) + slot - model.cum(s);
    while (x < kLow) x = (x << 8) | next_byte();
  }
  if (x != kLow) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "rans stream",
                      "final decoder state mismatch");
  }
}

std::vector<std::uint16_t> rans_decode(std::span<const std::uint8_t> bytes, std::size_t count,
                                       const RansModel& model) {
  std::vector<std::uint16_t> out(count);
  rans_decode_into(bytes, model, out);
  return out;
}

}  // namespace szp
