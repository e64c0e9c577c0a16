#include "core/rans.hh"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "core/error.hh"

namespace szp {

namespace {

// Standard 32-bit byte-wise rANS constants (ryg_rans layout): state stays
// in [kLow, kLow << 8) between symbols.
constexpr std::uint32_t kLow = 1u << 23;
constexpr std::uint32_t kMask = RansModel::kProbScale - 1;

/// Encoder entry of one symbol (ryg_rans RansEncSymbol).  Encoding s into
/// x is x' = (x / f) * M + cum + x % f with M = kProbScale; with the
/// quotient q = mulhi(x, rcp_freq) >> rcp_shift that is x + bias +
/// q * cmpl_freq, exact for every x < 2^31.  x_max = 0 marks a symbol the
/// model does not hold.
struct EncSymbol {
  std::uint32_t x_max = 0;  ///< renormalize while x >= x_max
  std::uint32_t rcp_freq = 0;
  std::uint32_t bias = 0;
  std::uint16_t cmpl_freq = 0;  ///< M - f
  std::uint16_t rcp_shift = 0;
};

std::vector<EncSymbol> encode_table(const RansModel& model) {
  constexpr std::uint32_t kM = RansModel::kProbScale;
  std::vector<EncSymbol> table(model.alphabet_size());
  for (std::size_t s = 0; s < table.size(); ++s) {
    const std::uint32_t f = model.freq(s);
    if (f == 0) continue;
    EncSymbol& e = table[s];
    e.x_max = ((kLow >> RansModel::kProbBits) << 8) * f;
    e.cmpl_freq = static_cast<std::uint16_t>(kM - f);
    if (f == 1) {
      // The reciprocal of 1 does not fit the fixed-point form; with
      // rcp_freq = 2^32 - 1 and no shift, q = x - 1 for every x >= 1, and
      // x + bias + (x - 1)(M - 1) = x * M + cum needs bias = cum + M - 1.
      e.rcp_freq = ~0u;
      e.rcp_shift = 0;
      e.bias = model.cum(s) + kM - 1;
    } else {
      // Alverson, "Integer division using reciprocals": shift = ceil(log2 f).
      std::uint32_t shift = 0;
      while (f > (1u << shift)) ++shift;
      e.rcp_freq = static_cast<std::uint32_t>(((1ull << (shift + 31)) + f - 1) / f);
      e.rcp_shift = static_cast<std::uint16_t>(shift - 1);
      e.bias = model.cum(s);
    }
  }
  return table;
}

template <unsigned L>
std::span<const std::uint8_t> encode_lanes(std::span<const std::uint16_t> symbols,
                                           std::span<const EncSymbol> table,
                                           sim::uninit_vector<std::uint8_t>& buf) {
  // A step emits at most two bytes (x < 2^31 renormalizes below x_max >=
  // 2^19), so 2n bytes plus the flush always suffice.  The stream fills the
  // buffer's first `cap` bytes from the end.  The buffer only grows, and
  // growing neither copies nor zeroes it, so only the tail the stream
  // occupies is ever touched.
  const std::size_t cap = 2 * symbols.size() + 4 * L;
  if (buf.size() < cap) {
    buf.clear();
    buf.resize(cap);
  }
  std::uint8_t* const end = buf.data() + cap;
  std::uint8_t* ptr = end;

  std::array<std::uint32_t, L> x{};
  x.fill(kLow);
  const auto put = [&](std::uint32_t& state, std::uint16_t s) {
    if (s >= table.size() || table[s].x_max == 0) {
      throw std::invalid_argument("rans_encode: symbol not in model");
    }
    const EncSymbol& e = table[s];
    std::uint32_t v = state;
    while (v >= e.x_max) {
      *--ptr = static_cast<std::uint8_t>(v);
      v >>= 8;
    }
    const auto q = static_cast<std::uint32_t>((std::uint64_t{v} * e.rcp_freq) >> 32) >> e.rcp_shift;
    state = v + e.bias + q * e.cmpl_freq;
  };

  // Encode in reverse so decoding streams forward; symbol i goes to lane
  // i mod L, so the partial last group comes first.
  std::size_t i = symbols.size();
  while (i % L != 0) {
    --i;
    put(x[i % L], symbols[i]);
  }
  while (i > 0) {
    i -= L;
#pragma GCC unroll 8
    for (unsigned j = 1; j <= L; ++j) put(x[L - j], symbols[i + L - j]);
  }
  // Flush the states big-endian, lane 0 last so it leads the stream.
  for (unsigned k = L; k-- > 0;) {
    for (int b = 0; b < 4; ++b) {
      *--ptr = static_cast<std::uint8_t>(x[k]);
      x[k] >>= 8;
    }
  }
  return {ptr, end};
}

[[noreturn]] void stream_truncated(std::size_t size) {
  throw DecodeError(DecodeErrorKind::kTruncated, "rans stream",
                    "state renormalization ran past the " + std::to_string(size) +
                        "-byte stream");
}

template <unsigned L>
void decode_lanes(std::span<const std::uint8_t> bytes, const RansModel& model,
                  std::span<std::uint16_t> out) {
  const RansModel::Slot* const slots = &model.slot(0);
  const std::uint8_t* const b = bytes.data();
  const std::size_t size = bytes.size();
  if (size < 4 * L) stream_truncated(size);
  std::array<std::uint32_t, L> x{};
  bool in_range = true;
  for (unsigned k = 0; k < L; ++k) {
    x[k] = std::uint32_t{b[4 * k]} << 24 | std::uint32_t{b[4 * k + 1]} << 16 |
           std::uint32_t{b[4 * k + 2]} << 8 | b[4 * k + 3];
    in_range = in_range && x[k] >= kLow;
  }
  std::size_t pos = 4 * L;

  const std::size_t n = out.size();
  std::size_t i = 0;
  if (in_range) {
    // A step from x >= kLow leaves x >= f * 2^11 >= 2^11, so it
    // renormalizes with at most two bytes and a group of L symbols reads at
    // most 2L: one bounds check per group, unchecked reads inside it.
    for (; n - i >= L && size - pos >= 2 * L; i += L) {
#pragma GCC unroll 8
      for (unsigned k = 0; k < L; ++k) {
        const RansModel::Slot e = slots[x[k] & kMask];
        out[i + k] = e.symbol;
        std::uint32_t v = e.freq * (x[k] >> RansModel::kProbBits) + e.offset;
        if (v < kLow) {
          v = (v << 8) | b[pos++];
          if (v < kLow) v = (v << 8) | b[pos++];
        }
        x[k] = v;
      }
    }
  }
  // The tail (and a stream whose flushed states are out of range) reads
  // byte by byte, each read checked.
  for (; i < n; ++i) {
    std::uint32_t& v = x[i % L];
    const RansModel::Slot e = slots[v & kMask];
    out[i] = e.symbol;
    v = e.freq * (v >> RansModel::kProbBits) + e.offset;
    while (v < kLow) {
      if (pos >= size) stream_truncated(size);
      v = (v << 8) | b[pos++];
    }
  }
  for (unsigned k = 0; k < L; ++k) {
    if (x[k] != kLow) {
      throw DecodeError(DecodeErrorKind::kCorruptStream, "rans stream",
                        "final decoder state mismatch in lane " + std::to_string(k));
    }
  }
}

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
  slots_.resize(kProbScale);
  for (std::size_t s = 0; s < freq_.size(); ++s) {
    for (std::uint32_t k = cum_[s]; k < cum_[s + 1]; ++k) {
      slots_[k] = Slot{static_cast<std::uint16_t>(s), static_cast<std::uint16_t>(freq_[s]),
                       k - cum_[s]};
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

std::span<const std::uint8_t> rans_encode_into(std::span<const std::uint16_t> symbols,
                                               const RansModel& model, unsigned lanes,
                                               sim::uninit_vector<std::uint8_t>& buf) {
  const auto table = encode_table(model);
  switch (lanes) {
    case 1:
      return encode_lanes<1>(symbols, table, buf);
    case kRansLanes:
      return encode_lanes<kRansLanes>(symbols, table, buf);
    default:
      throw std::invalid_argument("rans_encode: unsupported lane count " +
                                  std::to_string(lanes));
  }
}

std::vector<std::uint8_t> rans_encode(std::span<const std::uint16_t> symbols,
                                      const RansModel& model, unsigned lanes) {
  sim::uninit_vector<std::uint8_t> buf;
  const auto stream = rans_encode_into(symbols, model, lanes, buf);
  return {stream.begin(), stream.end()};
}

void rans_decode_into(std::span<const std::uint8_t> bytes, const RansModel& model,
                      std::span<std::uint16_t> out, unsigned lanes) {
  switch (lanes) {
    case 1:
      return decode_lanes<1>(bytes, model, out);
    case kRansLanes:
      return decode_lanes<kRansLanes>(bytes, model, out);
    default:
      throw std::invalid_argument("rans_decode: unsupported lane count " +
                                  std::to_string(lanes));
  }
}

std::vector<std::uint16_t> rans_decode(std::span<const std::uint8_t> bytes, std::size_t count,
                                       const RansModel& model, unsigned lanes) {
  std::vector<std::uint16_t> out(count);
  rans_decode_into(bytes, model, out, lanes);
  return out;
}

}  // namespace szp
