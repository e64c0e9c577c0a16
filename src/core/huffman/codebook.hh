// szp — canonical Huffman codebook over multi-byte symbols (paper §III-A.1:
// quant-codes are enumerated as symbols that may exceed one byte, so the
// alphabet is the quantizer capacity, up to 65536).
//
// The tree is built serially from the histogram — deliberately so: cuSZ/cuSZ+
// build the codebook with a single GPU thread (paper §I), which is why the
// codebook stage is a latency bottleneck on small fields.
//
// Decoding is table-driven.  A 4096-entry lookup table resolves every code of
// up to kLutBits = 12 bits with one peek of the bit reader; anything else
// (longer codes, a code running past the end of the stream, a prefix no code
// owns) falls back to the canonical walk over first_code/first_index per
// length, cuSZ's canonical codebook design.  Both give the same symbol
// wherever the table fires, so every decode verdict comes from the walk.
//
// decode_window() is the same lookup over a 64-bit window of the stream the
// caller has already loaded: the table, else the canonical tables over the
// window for codes of up to kWindowBits bits, else 0.  It never reads the
// stream and never throws; the Huffman inflate kernel (codec.cc) calls it
// only where every bit a code can span lies inside the stream, and leaves
// everything else, each verdict included, to decode_one().
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/huffman/bitio.hh"
#include "core/serialize.hh"
#include "sim/profile.hh"

namespace szp {

class HuffmanCodebook {
 public:
  static constexpr unsigned kMaxCodeLen = 63;
  /// Width of the decode table's index: codes of up to this many bits
  /// decode with one lookup.
  static constexpr unsigned kLutBits = 12;
  /// Longest code decode_window() resolves: an 8-byte load shifted left by
  /// a bit offset of up to 7 keeps 57 stream bits.
  static constexpr unsigned kWindowBits = 57;

  /// Build from symbol frequencies (the histogram).  Symbols with zero
  /// frequency get no code.  Degenerate alphabets (0 or 1 live symbols) are
  /// assigned a 1-bit code.
  static HuffmanCodebook build(std::span<const std::uint64_t> freq);

  [[nodiscard]] std::size_t alphabet_size() const { return lengths_.size(); }
  [[nodiscard]] unsigned length(std::size_t symbol) const { return lengths_[symbol]; }
  [[nodiscard]] std::uint64_t code(std::size_t symbol) const { return codes_[symbol]; }
  [[nodiscard]] unsigned max_length() const { return max_len_; }

  /// Average codeword bit length weighted by the given frequencies.
  [[nodiscard]] double average_bits(std::span<const std::uint64_t> freq) const;

  /// Decode one symbol from the reader: one table lookup when the next
  /// bits hold a complete code of at most kLutBits bits, else the canonical
  /// walk, which throws DecodeError ("bitstream") on a truncated stream or
  /// a prefix no code owns.
  [[nodiscard]] std::uint32_t decode_one(BitReader& reader) const {
    const std::uint32_t entry = lut_[reader.peek(kLutBits)];
    const unsigned entry_len = entry & 0xffu;
    if (entry != 0 && reader.remaining() >= entry_len) {
      reader.skip(entry_len);
      return entry >> 8;
    }
    std::uint64_t code = 0;
    for (unsigned len = 1; len <= max_len_; ++len) {
      code = (code << 1) | reader.get_bit();
      if (count_[len] > 0 && code - first_code_[len] < count_[len]) {
        return sorted_symbols_[first_index_[len] + static_cast<std::uint32_t>(code - first_code_[len])];
      }
    }
    throw DecodeError(DecodeErrorKind::kCorruptStream, "bitstream",
                      "no canonical Huffman code matches the next " +
                          std::to_string(max_len_) + " bits");
  }

  /// Decode the code at the top of `window`, the stream's next bits MSB
  /// first: (symbol << 8) | length, or 0 when no code of up to
  /// min(max_length(), kWindowBits) bits owns the prefix.  Where the window
  /// holds at least max_length() bits of the stream, a nonzero result is
  /// exactly what decode_one() returns and skips.
  [[nodiscard]] std::uint32_t decode_window(std::uint64_t window) const {
    const std::uint32_t entry = lut_[window >> (64 - kLutBits)];
    if (entry != 0) return entry;
    const unsigned longest = max_len_ < kWindowBits ? max_len_ : kWindowBits;
    for (unsigned len = kLutBits + 1; len <= longest; ++len) {
      const std::uint64_t rank = (window >> (64 - len)) - first_code_[len];
      if (rank < count_[len]) {
        return (sorted_symbols_[first_index_[len] + static_cast<std::uint32_t>(rank)] << 8) | len;
      }
    }
    return 0;
  }

  /// Analytic GPU cost of the (single-threaded) codebook construction.
  [[nodiscard]] sim::KernelCost build_cost() const;

  void serialize(ByteWriter& w) const;
  static HuffmanCodebook deserialize(ByteReader& r);

 private:
  void assign_canonical_codes();

  std::vector<std::uint8_t> lengths_;        // per symbol; 0 = absent
  std::vector<std::uint64_t> codes_;         // canonical, MSB-first
  unsigned max_len_ = 0;

  // Canonical decode tables, indexed by code length.
  std::array<std::uint64_t, kMaxCodeLen + 1> first_code_{};
  std::array<std::uint32_t, kMaxCodeLen + 1> first_index_{};
  std::array<std::uint32_t, kMaxCodeLen + 1> count_{};
  std::vector<std::uint32_t> sorted_symbols_;  // symbols ordered by (length, value)
  // Decode table indexed by the next kLutBits bits: (symbol << 8) | length
  // for every code of length <= kLutBits, replicated over its suffixes; 0
  // where no such code is a prefix.
  std::array<std::uint32_t, std::size_t{1} << kLutBits> lut_{};
};

}  // namespace szp
