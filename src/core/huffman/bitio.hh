// szp — MSB-first bit stream I/O: the one writer and the one reader of every
// bit-packed stream (the Huffman codec, the lzh bitstream, the lzr extra-bit
// sidecar).
//
// Both work a word at a time.  BitWriter accumulates into a 64-bit register
// and stores whole bytes into a caller-sized span.  BitReader peeks up to 57
// bits with one 8-byte load, which feeds the Huffman decode table
// (codebook.hh); get_bit() stays for the canonical-walk fallback.  The
// Huffman kernels (codec.cc) keep their fast loops outside these classes,
// as a per-call room check would cost them their gain: the inflate's
// unchecked phase makes the same 8-byte load, load_be64(), where it has
// proved the bytes lie inside the stream, and the deflate stores whole
// words, store_be64(), while they lie inside its chunk, then resumes a
// BitWriter from the same state for the chunk's tail.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "core/error.hh"

namespace szp {

/// The eight bytes at `p` as one word, the first byte most significant.
[[nodiscard]] inline std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap64(word);
  return word;
}

/// Store `word` at `p`, its most significant byte first.
inline void store_be64(std::uint8_t* p, std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap64(word);
  std::memcpy(p, &word, sizeof(word));
}

/// MSB-first bit writer over a caller-owned byte range, accumulating into a
/// 64-bit register and storing whole bytes.  The caller sizes the span
/// exactly from a code-length pass (the Huffman deflate kernel writes each
/// chunk straight into its scan-assigned slice of the payload); flush()
/// zero-pads and stores the last partial byte.
class BitWriter {
 public:
  explicit BitWriter(std::span<std::uint8_t> out) : out_(out) {}

  /// Resume a stream whose first `pos` bytes are stored and whose next
  /// `fill` (< 8) bits are the low bits of `acc` (bits above them are
  /// ignored): the Huffman deflate's word loop hands its state over here.
  BitWriter(std::span<std::uint8_t> out, std::size_t pos, std::uint64_t acc, unsigned fill)
      : out_(out), pos_(pos), acc_(acc), fill_(fill), bits_(pos * std::uint64_t{8} + fill) {}

  /// Append the low `len` bits of `code`, most significant first.
  void put(std::uint64_t code, unsigned len) {
    if (len > 56) {  // keep acc_ from overflowing: fill_ <= 7 after stores
      const unsigned hi = len - 56;
      put(code >> 56, hi);
      len = 56;
      code &= (std::uint64_t{1} << 56) - 1;
    }
    acc_ = (acc_ << len) | (len == 0 ? 0 : (code & (~std::uint64_t{0} >> (64 - len))));
    fill_ += len;
    bits_ += len;
    while (fill_ >= 8) {
      fill_ -= 8;
      out_[pos_++] = static_cast<std::uint8_t>(acc_ >> fill_);
    }
  }

  /// Store the trailing partial byte, zero-padded.
  void flush() {
    if (fill_ > 0) {
      out_[pos_++] = static_cast<std::uint8_t>(acc_ << (8 - fill_));
      fill_ = 0;
    }
  }

  [[nodiscard]] std::uint64_t bit_count() const { return bits_; }
  [[nodiscard]] std::size_t byte_count() const { return pos_; }

 private:
  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
  std::uint64_t bits_ = 0;
};

/// MSB-first bit reader over a byte span, optionally starting mid-stream
/// (used by the gap-array decoder to enter a chunk at a recorded offset).
/// No load ever touches a byte outside the span.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes, std::uint64_t start_bit = 0)
      : bytes_(bytes), pos_(start_bit) {}

  /// The next `n` bits (1 <= n <= 57), MSB first, zero-padded past the end
  /// of the span; does not advance.  One 8-byte load when all eight bytes
  /// lie inside the span, else the word is assembled byte by byte.
  [[nodiscard]] std::uint64_t peek(unsigned n) const {
    const std::uint64_t byte = pos_ >> 3;
    std::uint64_t word = 0;
    if (byte + 8 <= bytes_.size()) {
      word = load_be64(bytes_.data() + byte);
    } else {
      for (std::uint64_t i = byte; i < bytes_.size(); ++i) {
        word |= std::uint64_t{bytes_[i]} << (56 - 8 * (i - byte));
      }
    }
    return (word << (pos_ & 7)) >> (64 - n);
  }

  /// Bits left before the end of the span (0 once past it).
  [[nodiscard]] std::uint64_t remaining() const {
    const std::uint64_t total = std::uint64_t{bytes_.size()} * 8;
    return pos_ < total ? total - pos_ : 0;
  }

  /// Advance by `n` bits the caller has already peeked and checked.
  void skip(unsigned n) { pos_ += n; }

  /// Read `n` bits (0 <= n <= 57), MSB first; get(0) is 0.  Throws the
  /// get_bit() verdict when fewer than `n` bits are left.
  [[nodiscard]] std::uint64_t get(unsigned n) {
    if (n == 0) return 0;
    if (remaining() < n) throw_past_end();
    const std::uint64_t v = peek(n);
    pos_ += n;
    return v;
  }

  [[nodiscard]] unsigned get_bit() {
    const std::uint64_t byte = pos_ >> 3;
    if (byte >= bytes_.size()) throw_past_end();
    const unsigned bit = (bytes_[byte] >> (7 - (pos_ & 7))) & 1u;
    ++pos_;
    return bit;
  }

  [[nodiscard]] std::uint64_t bit_position() const { return pos_; }

 private:
  [[noreturn]] void throw_past_end() const {
    throw DecodeError(DecodeErrorKind::kTruncated, "bitstream",
                      "read past end of a " + std::to_string(bytes_.size()) + "-byte stream");
  }

  std::span<const std::uint8_t> bytes_;
  std::uint64_t pos_ = 0;
};

}  // namespace szp
