// szp — the lossless codec tier.
//
// Every quant-code payload format — chunked Huffman, RLE, RLE+VLE, rANS,
// and the LZ77 family (lz77/lzh/lzr) — implements LosslessCodec: one object
// owns both serialization directions of its section *and* a static cost
// estimate the selector (core/analysis/selector.hh) ranks codecs with.
// Compressor, streaming tier, CLI, fuzz harness, and benches all reach the
// codecs through one fixed table (codecs() and codec() below), so adding a
// codec is: implement this interface, allot the next Workflow tag (the
// archive header stores it — tags are append-only, and tags past
// kRansOneLane, tag 3, bump the archive format to version 3) and give it the
// table's next row.  A format change allots a new tag too: kRans moved from
// one rANS lane to eight under tag 7, and tag 3 stays as the decode-only
// one-lane codec, which codec() reaches but codecs() does not list.
//
// Contract highlights:
//   * encode() writes the codec's self-describing section directly after
//     the outlier section, in place: once it knows the section's exact
//     size it opens the section in the archive (SectionSink), which is
//     allocated then, once, at its exact size, and fills it.  decode() must
//     consume exactly those bytes
//     and decode in place into the workspace product's quant-code buffer,
//     with no intermediate symbol vector (throwing DecodeError with the
//     taxonomy of core/error.hh on any inconsistency, always validating
//     declared sizes *before* allocating, and running its own section
//     checks before the symbol-count-vs-grid check, kCorruptStream in
//     "quant-codes").  The codec sizes that buffer to the grid's n only
//     after the count check, so the header's element count alone never
//     drives an allocation (DESIGN.md §9.2).
//   * Kernels run as registered checked launches with footprint contracts,
//     so `--check=word`, `szp analyze` and the traffic analyzer cover every
//     codec equally.
//   * estimate() is histogram-only — no trial encode.  The rANS and LZ
//     estimates price their stages with the formulas the stages report
//     (LZ at the projected payload, its decode stage at the section it
//     read).  The Huffman and RLE estimates are coarser than their stages'
//     modeled costs — Huffman's reads n·2 + live·9 bytes in 3 launches,
//     its stage two code passes, the chunk-size scan and the offsets in 4
//     — and stay so on purpose: kAuto's picks, and so its archives, depend
//     on them.
#pragma once

#include <cstdint>
#include <span>

#include "core/compressor.hh"
#include "core/serialize.hh"
#include "core/workspace.hh"
#include "sim/profile.hh"

namespace szp::pipeline {

/// Everything an encoder needs besides the quant-codes themselves.
struct EncodeContext {
  const CompressConfig& cfg;
  std::span<const std::uint64_t> freq;  ///< quant-code histogram
  std::size_t original_bytes = 0;       ///< for PipelineReport entries
};

/// Decode-side inputs: the expected element count (validated against the
/// header before any decode-driven allocation) and the uncompressed payload
/// size used as the throughput denominator in reports.
struct DecodeContext {
  std::size_t n = 0;
  std::size_t payload_bytes = 0;
};

/// Histogram-derived signals estimate() projects from (no trial encode).
struct CodecSignals {
  EntropyStats stats;                   ///< entropy_stats(freq)
  std::span<const std::uint64_t> freq;  ///< quant-code histogram
  std::size_t n = 0;                    ///< symbol count (stats.total)
  std::size_t bytes_per_value = 4;      ///< uncompressed element width
  std::uint32_t huffman_chunk = 4096;   ///< configured encode chunk size
};

/// What estimate() projects: payload density, fixed section overhead, and
/// the analytic kernel costs of both directions.
struct CodecEstimate {
  double payload_bits_per_symbol = 0.0;  ///< projected ⟨b⟩ of the payload
  double fixed_bytes = 0.0;              ///< books/tables/chunk metadata
  sim::KernelCost encode_cost;
  sim::KernelCost decode_cost;
};

/// Where a codec's section goes: the archive being written, which is
/// allocated once, at its exact size, when the codec opens the section.
class SectionSink {
 public:
  /// Allocate the archive with exactly `section_bytes` for the codec's
  /// section, write everything before the section, and return a writer at
  /// its first byte with exactly that much room.  A codec calls it once per
  /// encode(), when it knows the size, and fills the section completely.
  virtual ByteWriter& open(std::size_t section_bytes) = 0;

  /// Size the section with a counting run of `fill(ByteWriter&)`, then
  /// open() it and run `fill` into it: for a section that copies products
  /// the codec already holds.
  template <typename Fill>
  void write(Fill&& fill) {
    fill(open(counted_size(fill)));
  }

 protected:
  ~SectionSink() = default;
};

/// One lossless quant-code codec: both serialization directions of its
/// archive section plus the static cost estimate the selector ranks.
class LosslessCodec {
 public:
  virtual ~LosslessCodec() = default;

  /// The serialized codec id — stored in the archive header's workflow slot.
  [[nodiscard]] virtual Workflow id() const = 0;
  /// Stable display name (CLI `--codec` values, `analyze --codecs` rows).
  [[nodiscard]] virtual const char* name() const = 0;

  /// Encode the quant-codes and write their section through `sink`,
  /// reporting kernels into `report` (stage names are pinned by tests and
  /// benches).
  virtual void encode(std::span<const quant_t> quant, const EncodeContext& ctx, Workspace& ws,
                      SectionSink& sink, sim::PipelineReport& report) const = 0;

  /// Mirror of encode(): parse the section, check that it holds exactly
  /// ctx.n symbols, then size `out` to ctx.n and decode straight into it.
  /// Throws DecodeError when the section is inconsistent or does not hold
  /// exactly ctx.n symbols; the count check comes before the resize.
  virtual void decode(ByteReader& r, const DecodeContext& ctx, sim::device_vector<quant_t>& out,
                      sim::PipelineReport& report) const = 0;

  /// Histogram-only projection of density and kernel cost (see CodecEstimate).
  [[nodiscard]] virtual CodecEstimate estimate(const CodecSignals& sig) const = 0;
};

/// Every codec an archive can be written with: the selector ranks (and
/// `analyze --codecs` prints) exactly this set, in this order.  Row i holds
/// Workflow tag i, except row 3, which holds kRans (tag 7) where its
/// one-lane predecessor sat.
[[nodiscard]] std::span<const LosslessCodec* const> codecs();

/// The codec for a Workflow tag, the decode-only kRansOneLane included;
/// throws std::logic_error for an unknown tag and for Workflow::kAuto,
/// which the selector must resolve first.
[[nodiscard]] const LosslessCodec& codec(Workflow wf);

}  // namespace szp::pipeline

