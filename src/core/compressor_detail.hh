// szp — the compressor's one implementation, library-internal.
//
// Every public Compressor::compress overload runs detail::compress with no
// range, so the field's min, max and finiteness come from its own scan.
// The slab engine (core/streaming.cc) is the only other caller: its
// relative-bound pre-pass has already scanned each slab, and it hands that
// slab's range in so the slab is not scanned twice.  This is deliberately
// not public API: a range that does not cover the data would void the
// error bound.
//
// Decode has the mirror entry: the slab engine's view route checks every
// slab's CRC-32 up front (validate_slabs, through Compressor::inspect), and
// decodes each such slab through detail::decompress_verified, so no slab's
// CRC runs twice.  Not public either: bytes nobody checked would go
// unchecked.
#pragma once

#include "core/compressor.hh"
#include "core/eb.hh"

namespace szp::detail {

/// Compressor::compress(data, ext, cfg, ws).  When `range` is not null it
/// stands in for ValueRange::of(data) and must equal it: the merge of the
/// ranges of any partition of `data` does.
[[nodiscard]] Compressed compress(const CompressConfig& cfg, FieldView data, const Extents& ext,
                                  Workspace& ws, const ValueRange* range);

/// Compressor::decompress(archive, out, ws) for an archive whose trailing
/// CRC-32 Compressor::inspect() has already verified: parses its body with
/// no second CRC pass, with the same verdicts otherwise.
void decompress_verified(std::span<const std::uint8_t> archive, Decompressed& out, Workspace& ws);

}  // namespace szp::detail
