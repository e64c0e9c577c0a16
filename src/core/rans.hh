// szp — byte-renormalized range ANS (rANS) entropy coder.
//
// The table-variant ANS family is what Zstandard's FSE implements; rANS is
// the arithmetic variant of the same construction (Duda 2013).  This is the
// entropy stage of lzr.cc, the repository's Zstd stand-in (cuSZ's Step-9
// dictionary encoder runs Zstd on the host, paper §II-A).
//
// Model: symbol frequencies normalized to 2^12; encoding walks the symbol
// stream backwards and emits bytes, decoding walks forwards — the classic
// LIFO ANS arrangement.  Fractional-bit coding means skewed alphabets beat
// Huffman's 1-bit-per-symbol floor.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/serialize.hh"

namespace szp {

/// Normalized symbol model (total frequency = 2^kProbBits).
class RansModel {
 public:
  static constexpr unsigned kProbBits = 12;
  static constexpr std::uint32_t kProbScale = 1u << kProbBits;

  /// Build from raw counts.  Every symbol that occurs keeps frequency >= 1
  /// after normalization.  Throws if all counts are zero or the alphabet
  /// exceeds 2^16.
  static RansModel build(std::span<const std::uint64_t> counts);

  [[nodiscard]] std::size_t alphabet_size() const { return freq_.size(); }
  [[nodiscard]] std::uint32_t freq(std::size_t s) const { return freq_[s]; }
  [[nodiscard]] std::uint32_t cum(std::size_t s) const { return cum_[s]; }

  /// Symbol owning probability slot `slot` (< kProbScale).
  [[nodiscard]] std::uint16_t symbol_at(std::uint32_t slot) const { return slot_to_symbol_[slot]; }

  void serialize(ByteWriter& w) const;
  static RansModel deserialize(ByteReader& r);

 private:
  void finalize();  // build cum_ and the slot table from freq_

  std::vector<std::uint32_t> freq_;
  std::vector<std::uint32_t> cum_;
  std::vector<std::uint16_t> slot_to_symbol_;
};

/// Encode a symbol stream.  Output is just the byte stream (the caller
/// stores the symbol count and model).
[[nodiscard]] std::vector<std::uint8_t> rans_encode(std::span<const std::uint16_t> symbols,
                                                    const RansModel& model);

/// Decode exactly out.size() symbols into `out`.
void rans_decode_into(std::span<const std::uint8_t> bytes, const RansModel& model,
                      std::span<std::uint16_t> out);

/// Decode `count` symbols into a new vector.
[[nodiscard]] std::vector<std::uint16_t> rans_decode(std::span<const std::uint8_t> bytes,
                                                     std::size_t count, const RansModel& model);

}  // namespace szp
