// szp — byte-renormalized range ANS (rANS) entropy coder.
//
// The table-variant ANS family is what Zstandard's FSE implements; rANS is
// the arithmetic variant of the same construction (Duda 2013).  This is the
// quant-code codec of Workflow::kRans and the entropy stage of lzr.cc, the
// repository's Zstd stand-in (cuSZ's Step-9 dictionary encoder runs Zstd on
// the host, paper §II-A).
//
// Model: symbol frequencies normalized to 2^12; encoding walks the symbol
// stream backwards and emits bytes, decoding walks forwards — the classic
// LIFO ANS arrangement.  Fractional-bit coding means skewed alphabets beat
// Huffman's 1-bit-per-symbol floor.
//
// Lanes (Giesen, "Interleaved entropy coders", arXiv 1402.3392): the coder
// runs `lanes` independent 32-bit states over one shared byte stream.
// Symbol i belongs to state i mod lanes, so consecutive symbols no longer
// wait on each other's state update; the states are flushed at the end,
// state 0 first in the stream.  One lane is the original format, which
// Workflow::kRansOneLane archives and both lzr streams carry; eight lanes is
// what Workflow::kRans writes.  Encode divides through per-symbol
// reciprocals (ryg_rans), and decode makes one load per symbol from a packed
// slot table.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/serialize.hh"
#include "sim/aligned.hh"

namespace szp {

/// The lane count of Workflow::kRans; the only other supported count is 1.
inline constexpr unsigned kRansLanes = 8;

/// Normalized symbol model (total frequency = 2^kProbBits).
class RansModel {
 public:
  static constexpr unsigned kProbBits = 12;
  static constexpr std::uint32_t kProbScale = 1u << kProbBits;

  /// The decode entry of one probability slot: the symbol owning the slot,
  /// that symbol's frequency, and the slot's offset past the symbol's
  /// cumulative frequency — everything a decode step needs in one load.
  struct Slot {
    std::uint16_t symbol;
    std::uint16_t freq;
    std::uint32_t offset;
  };
  static_assert(sizeof(Slot) == 8);

  /// Build from raw counts.  Every symbol that occurs keeps frequency >= 1
  /// after normalization.  Throws if all counts are zero or the alphabet
  /// exceeds 2^16.
  static RansModel build(std::span<const std::uint64_t> counts);

  [[nodiscard]] std::size_t alphabet_size() const { return freq_.size(); }
  [[nodiscard]] std::uint32_t freq(std::size_t s) const { return freq_[s]; }
  [[nodiscard]] std::uint32_t cum(std::size_t s) const { return cum_[s]; }

  /// Decode entry of probability slot `slot` (< kProbScale).
  [[nodiscard]] const Slot& slot(std::uint32_t slot) const { return slots_[slot]; }

  void serialize(ByteWriter& w) const;
  static RansModel deserialize(ByteReader& r);

 private:
  void finalize();  // build cum_ and the slot table from freq_

  std::vector<std::uint32_t> freq_;
  std::vector<std::uint32_t> cum_;
  std::vector<Slot> slots_;
};

/// Encode a symbol stream over `lanes` (1 or kRansLanes) interleaved
/// states, backwards into `buf`, and return the stream: the tail of `buf`'s
/// first 2n + 4 * lanes bytes.  `buf` grows to that size when it is
/// smaller, unzeroed, so a reused buffer (Workspace::rans_stream) allocates
/// nothing and only the stream's bytes are touched.  The caller stores the
/// symbol count, the model and, through its format, the lane count.
/// Throws std::invalid_argument on a symbol the model does not hold or an
/// unsupported lane count.
[[nodiscard]] std::span<const std::uint8_t> rans_encode_into(
    std::span<const std::uint16_t> symbols, const RansModel& model, unsigned lanes,
    sim::uninit_vector<std::uint8_t>& buf);

/// rans_encode_into() through a buffer of its own; returns a copy of the
/// stream.
[[nodiscard]] std::vector<std::uint8_t> rans_encode(std::span<const std::uint16_t> symbols,
                                                    const RansModel& model, unsigned lanes = 1);

/// Decode exactly out.size() symbols into `out` from a stream written with
/// the same lane count.  Throws DecodeError in segment "rans stream":
/// kTruncated when the stream ends early, kCorruptStream when a final state
/// differs from the encoder's initial one.
void rans_decode_into(std::span<const std::uint8_t> bytes, const RansModel& model,
                      std::span<std::uint16_t> out, unsigned lanes = 1);

/// Decode `count` symbols into a new vector.
[[nodiscard]] std::vector<std::uint16_t> rans_decode(std::span<const std::uint8_t> bytes,
                                                     std::size_t count, const RansModel& model,
                                                     unsigned lanes = 1);

}  // namespace szp
