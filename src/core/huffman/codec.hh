// szp — chunked Huffman encoder/decoder (paper Steps 5-8: histogram →
// codebook → per-chunk encode → deflate/concatenate).
//
// Symbols are encoded in independent chunks of `chunk_size`; chunk output
// offsets come from a device-wide exclusive scan of the per-chunk encoded
// sizes (the "deflating" step).  Chunks start byte-aligned — at most 7 bits
// padding per 4096-symbol chunk (<0.03%), which keeps the concatenation
// race-free: each chunk writes only its own scanned slice, one 8-byte word
// per symbol while the word fits the slice, then byte by byte; this is the
// chunkwise metadata overhead the paper notes for CUSZ-VLE.  The two
// halves are separate calls (huffman_size_into, huffman_deflate_into), so
// the Huffman codec can size the archive first and deflate straight into
// it.
//
// Decoding starts every chunk (or gap-array sub-block) at its stored offset.
// One inflate block decodes four consecutive such units, a symbol of each in
// turn, so the dependent table walks of independent units overlap; while
// every unit has room it loads each symbol's 8-byte window unchecked, and
// the rest goes through the bounds-checked BitReader.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/huffman/codebook.hh"
#include "core/types.hh"
#include "sim/aligned.hh"
#include "sim/profile.hh"

namespace szp {

/// Which encoder the cost model attributes (Table VI's Huffman rows): the
/// cuSZ baseline stores full words per thread regardless of code length;
/// the optimized cuSZ+ encoder only stores when a unit fills, making store
/// traffic inversely proportional to compression ratio (paper §V-C.1).
enum class HuffmanEncVariant { kBaseline, kOptimized };

struct HuffmanEncoded {
  std::vector<std::uint8_t> payload;         ///< concatenated chunk bitstreams
  std::vector<std::uint64_t> chunk_offsets;  ///< byte offset per chunk, size nchunks+1
  std::uint64_t num_symbols = 0;
  std::uint32_t chunk_size = 4096;

  /// Gap array (the fine-grained decoding aid of Tian et al., IPDPS'21 —
  /// the paper's reference [15]): when gap_stride > 0, every chunk records
  /// the bit offset of each gap_stride-symbol sub-block, so decoding can
  /// parallelize at sub-block rather than chunk granularity at the cost of
  /// 4 bytes of metadata per sub-block.
  std::uint32_t gap_stride = 0;
  std::vector<std::uint32_t> gaps;  ///< per chunk: subblocks_per_chunk entries

  sim::KernelCost cost;  ///< encode + deflate kernels

  [[nodiscard]] std::size_t byte_size() const {
    return payload.size() + chunk_offsets.size() * sizeof(std::uint64_t) +
           gaps.size() * sizeof(std::uint32_t);
  }
};

/// Encode symbols with the codebook.  Parallel over chunks.  A nonzero
/// gap_stride (must divide chunk_size) additionally records the gap array.
[[nodiscard]] HuffmanEncoded huffman_encode(std::span<const quant_t> symbols,
                                            const HuffmanCodebook& book,
                                            std::uint32_t chunk_size = 4096,
                                            HuffmanEncVariant variant = HuffmanEncVariant::kOptimized,
                                            std::uint32_t gap_stride = 0);

/// Workspace-reuse variant: fills `enc` (and uses `chunk_bytes` as the
/// per-chunk size scratch) with capacity-preserving assigns, so repeated
/// calls at the same size allocate nothing (see core/workspace.hh).
/// huffman_size_into() followed by huffman_deflate_into() into enc.payload.
void huffman_encode_into(std::span<const quant_t> symbols, const HuffmanCodebook& book,
                         std::uint32_t chunk_size, HuffmanEncVariant variant,
                         std::uint32_t gap_stride, HuffmanEncoded& enc,
                         std::vector<std::uint64_t>& chunk_bytes);

/// The encode's first half: sizes every chunk from its code lengths and
/// scans the sizes into enc.chunk_offsets, filling every field of `enc` but
/// the payload and the gap values (enc.gaps is sized and zeroed) and
/// setting enc.cost to these launches' traffic.  Returns the payload's byte
/// count.  Throws std::invalid_argument on a bad chunk size or gap stride,
/// or on a symbol the book has no code for.
std::uint64_t huffman_size_into(std::span<const quant_t> symbols, const HuffmanCodebook& book,
                                std::uint32_t chunk_size, std::uint32_t gap_stride,
                                HuffmanEncoded& enc, std::vector<std::uint64_t>& chunk_bytes);

/// The encode's second half: deflates the symbols huffman_size_into() sized
/// into `payload` (exactly its byte count; the Huffman codec passes the
/// archive's own bytes), records the gap array in enc.gaps and completes
/// enc.cost.  Each chunk writes only its own scanned slice of `payload`.
void huffman_deflate_into(std::span<const quant_t> symbols, const HuffmanCodebook& book,
                          HuffmanEncVariant variant, HuffmanEncoded& enc,
                          std::span<std::uint8_t> payload);

struct HuffmanDecoded {
  std::vector<quant_t> symbols;
  sim::KernelCost cost;
};

/// Decode all chunks of `payload` (parallel over groups of four chunks,
/// interleaved table lookups within) straight into `out` and return the
/// kernel cost.  `enc` supplies the metadata only: the payload is read in
/// place, e.g. from the archive, and enc.payload is not consulted.  When
/// the encoding carries a gap array, decoding enters each sub-block at its
/// recorded bit offset instead, and the groups are of four sub-blocks.  The
/// metadata is validated first; then an encoding that does not hold exactly
/// `n` symbols throws DecodeError (kCorruptStream, "quant-codes").  Only
/// after both checks is `out` sized to n, so a spliced count never drives
/// the allocation.  A damaged stream throws the DecodeError of its lowest
/// faulting chunk or sub-block.
sim::KernelCost huffman_decode_into(const HuffmanEncoded& enc,
                                    std::span<const std::uint8_t> payload,
                                    const HuffmanCodebook& book, std::size_t n,
                                    sim::device_vector<quant_t>& out);

/// Decode enc.payload into a new vector of enc.num_symbols symbols.
[[nodiscard]] HuffmanDecoded huffman_decode(const HuffmanEncoded& enc,
                                            const HuffmanCodebook& book);

}  // namespace szp
