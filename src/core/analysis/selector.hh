// szp — the compressibility-aware workflow selector (paper §III, generalized).
//
// The paper's practical rule is binary: "when Huffman is likely to achieve
// an average bit-length lower than 1.09, we can use RLE" — at that point the
// symbol stream is dominated by one value (p1 near 1), so runs are long and
// RLE beats or matches VLE while also breaking VLE's 32x ceiling for floats.
//
// This module generalizes that cutoff into a cost model over *every* codec
// in the codec table (core/codec/codec.hh; per the synergistic-orchestration
// direction of arXiv 2507.11165): each codec projects, from the quant-code
// histogram alone (no trial encode), its payload bits per symbol, its fixed
// section overhead, and the analytic KernelCost of its encode/decode
// kernels.  The selector
// turns those into an estimated compression ratio and a modeled encode time
// on the V100 model (sim::v100()), normalizes both against the best candidate,
// and ranks by a user-weighted ratio/throughput objective:
//
//   score(c) = w_ratio * ratio(c)/max_ratio + w_tput * min_time/time(c)
//
// The paper's rule falls out as the special case {candidates = {Huffman,
// RLE+VLE}, w_tput = 0}: RLE wins exactly when 32·(1−p1) < max(1, H+R⁻),
// and on the skewed alphabets the rule targets the crossover sits at
// ⟨b⟩ ≈ 1.09 (see DESIGN.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/analysis/entropy.hh"

namespace szp {

enum class Workflow : std::uint8_t {
  kHuffman = 0,  ///< Lorenzo + multi-byte VLE (cuSZ default)
  kRle = 1,      ///< Lorenzo + RLE
  kRleVle = 2,   ///< Lorenzo + RLE + VLE over run values/lengths
  kRansOneLane = 3,  ///< one-lane rANS, the format kRans wrote before it
                     ///< moved to eight lanes: decode only
  kLz77 = 4,     ///< LZ77 tokens over the packed quant-code bytes, stored raw
                 ///< (the fast dictionary tier; archive format v3)
  kLzh = 5,      ///< LZ77 + canonical Huffman over the packed quant-code
                 ///< bytes (the paper's `qg` gzip reference as a pipeline
                 ///< codec; archive format v3)
  kLzr = 6,      ///< LZ77 + rANS (the Zstd stand-in; archive format v3)
  kRans = 7,     ///< Lorenzo + rANS over quant-codes in eight interleaved
                 ///< lanes (extension: fractional-bit entropy coding breaks
                 ///< Huffman's 1-bit floor without the RLE metadata; not in
                 ///< the paper; archive format v3)
  kAuto = 255,   ///< let the cost-model selector rank every codec
};

struct SelectorConfig {
  /// Objective weights.  ratio_weight rewards the projected compression
  /// ratio, throughput_weight rewards modeled encode speed; both are
  /// normalized against the best candidate, so only their relative size
  /// matters.  The defaults lean toward ratio (the paper's framing: encode
  /// throughput differences between the GPU codecs are second-order next to
  /// the CR differences the selector exists to capture).
  double ratio_weight = 0.65;
  double throughput_weight = 0.35;
};

/// One row of the selector's ranking: the per-codec evidence the decision
/// was made from (also what `szp analyze --codecs` prints).
struct CodecScore {
  Workflow workflow = Workflow::kHuffman;
  const char* name = "";            ///< LosslessCodec::name() of the codec
  double est_bits_per_symbol = 0.0; ///< projected payload ⟨b⟩
  double est_fixed_bytes = 0.0;     ///< projected section overhead (books,
                                    ///< tables, chunk metadata)
  double est_ratio = 0.0;           ///< projected CR including the overhead
  double modeled_encode_seconds = 0.0;
  double modeled_decode_seconds = 0.0;
  double score = 0.0;               ///< weighted objective, higher is better
};

/// The selector's verdict and all of its evidence: the histogram
/// statistics (the paper's ⟨b⟩ ≈ max(1, H + R⁻) is
/// max(1, stats.avg_bits_lower())) and one projected row per codec.
struct WorkflowDecision {
  Workflow workflow = Workflow::kHuffman;
  EntropyStats stats;              ///< the histogram evidence
  std::vector<CodecScore> scores;  ///< every codec in the table, best first
};

/// Decide the workflow from a quant-code histogram by ranking every codec
/// in the codec table under `cfg`'s objective.  `bytes_per_value` is the
/// uncompressed element width (4 for float).
[[nodiscard]] WorkflowDecision select_workflow(std::span<const std::uint64_t> freq,
                                               std::size_t bytes_per_value = 4,
                                               const SelectorConfig& cfg = {});

}  // namespace szp

