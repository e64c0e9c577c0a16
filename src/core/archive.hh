// szp — SZP+ archive framing: the fixed header that every archive starts
// with and the trailing CRC-32 that seals it.
//
// Exactly one module owns the byte layout.  Compression writes the header
// through write_header(), decompression and inspect() parse it through
// read_header(), and both directions share checked_body()/seal_crc32() for
// the integrity seal — so a format change is a one-file edit and the three
// consumers can never drift apart.  Predictor aux payloads (regression
// coefficients, interpolation anchors) and codec payloads are *not* framed
// here: they belong to the predictor stage and the codec the header's tags
// pick from their fixed tables (core/pipeline/stage.hh,
// core/codec/codec.hh), which serialize directly after the header — the
// predictor's aux, then the outlier stream, then the codec section.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/compressor.hh"
#include "core/serialize.hh"
#include "sim/sparse.hh"

namespace szp::archive {

inline constexpr std::uint32_t kMagic = 0x2B505A53;  // "SZP+"
/// Format v2: the original four workflow tags 0–3 (kHuffman, kRle,
/// kRleVle and kRansOneLane, the one-lane rANS format tag 3 has always
/// named).  Archives that use them keep writing v2 so every pre-codec-tier
/// archive and golden stays byte-identical in both directions.
inline constexpr std::uint16_t kVersion = 2;
/// Format v3: identical layout, but the workflow slot may also carry the
/// tags past kRansOneLane: the LZ codecs (kLz77/kLzh/kLzr) and eight-lane
/// kRans.  Readers accept both versions; writers emit the lowest version
/// that can express the archive.
inline constexpr std::uint16_t kVersionCodec = 3;

/// The fixed-size leading header of an SZP+ archive (everything before the
/// predictor aux payload) — the struct Compressor::inspect() returns.
using ArchiveHeader = Compressor::ArchiveInfo;

/// Serialize the header (magic, version, rank, workflow, dtype, extents,
/// bound, capacity, predictor — in that order, little-endian).
void write_header(ByteWriter& w, const ArchiveHeader& h);

/// Parse and validate the header, leaving the reader positioned at the
/// predictor aux payload.  Throws DecodeError on any inconsistency;
/// every field is validated before it is trusted.  The workflow tag is
/// checked first, then check_shape(), then bound, capacity and predictor.
[[nodiscard]] ArchiveHeader read_header(ByteReader& r);

/// The shape checks every szp header makes, for an archive (read_header)
/// and a slab container (core/streaming.cc) alike, in this order: rank in
/// [1, 3], a known element-type tag, extents consistent with the rank
/// (corrupt-stream), and an element count that does not overflow
/// (length-overflow) — all in segment "header".  Returns the dtype.
[[nodiscard]] DType check_shape(const Extents& ext, std::uint8_t dtype_tag);

/// Read the outlier section (the index vector, then the value vector) into
/// `out`, reusing its capacity, and check it against an n-element field:
/// as many values as indices, every index below n, and the indices strictly
/// increasing, as compression writes them.  Decode adds each outlier into
/// one element of the field, so an index past n would write outside it and
/// a repeated index would add its residual twice.  Throws DecodeError in
/// segment "outliers".  The SZP+ and the cuSZ baseline decoders share it.
void read_outliers(ByteReader& r, std::size_t n, sim::SparseVector<qdiff_t>& out);

/// Bytes of the trailing CRC-32 that seals an archive (and a bundle).
inline constexpr std::size_t kCrcBytes = 4;

/// Verify and strip the trailing CRC-32, returning the archive body.
[[nodiscard]] std::span<const std::uint8_t> checked_body(std::span<const std::uint8_t> archive);

/// Seal bytes allocated with their CRC tail: store the CRC-32 of all but
/// the last kCrcBytes bytes, little-endian, in those bytes.
void seal_crc32(std::span<std::uint8_t> sealed);

}  // namespace szp::archive
