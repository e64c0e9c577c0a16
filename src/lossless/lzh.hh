// szp::lossless — a DEFLATE-style LZ77 + canonical-Huffman byte codec.
//
// Plays the role of gzip/Zstd in the paper's reference schemes: `qg`
// (generic byte-level lossless over quant-codes) and `qhg` (gzip appended
// after Huffman, the paper's highest-CR reference, Table I / Table IV).
// Token layout follows DEFLATE: a literal/length alphabet (0-255 literals,
// 256 end-of-block, 257-285 length codes with extra bits) and a 30-symbol
// distance alphabet, both with dynamic canonical Huffman codebooks; matches
// come from a 32 KiB hash-chain window, greedy parse.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lossless/lz77.hh"

namespace szp::lossless {

/// Compress a byte stream.  Output is self-describing (original size and
/// both codebooks are embedded).
[[nodiscard]] std::vector<std::uint8_t> lzh_compress(std::span<const std::uint8_t> input,
                                                     const Lz77Config& cfg = {});

/// Inverse of lzh_compress.  Throws szp::DecodeError on malformed input.
[[nodiscard]] std::vector<std::uint8_t> lzh_decompress(std::span<const std::uint8_t> input);

/// Convenience: compression ratio this codec achieves on a buffer.
[[nodiscard]] double lzh_ratio(std::span<const std::uint8_t> input);

}  // namespace szp::lossless
