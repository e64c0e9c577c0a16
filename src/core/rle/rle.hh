// szp — run-length encoding of quant-codes (paper §III-B, Workflow-RLE).
//
// Implemented over the substrate's reduce_by_key (the paper uses
// thrust::reduce_by_key, §V-B).  Runs longer than 65535 are split so counts
// serialize as u16; the optional VLE stage (RLE+VLE) Huffman-codes both the
// run-value stream and the run-length stream, which is what delivers the
// paper's "steady 2x-3x gain beyond RLE".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hh"
#include "sim/aligned.hh"
#include "sim/profile.hh"

namespace szp {

struct RleEncoded {
  std::vector<quant_t> values;        ///< one per run
  std::vector<std::uint16_t> counts;  ///< run lengths (long runs split)
  std::uint64_t num_symbols = 0;      ///< original sequence length
  sim::KernelCost cost;

  [[nodiscard]] std::size_t run_count() const { return values.size(); }
  [[nodiscard]] std::size_t byte_size() const {
    return values.size() * sizeof(quant_t) + counts.size() * sizeof(std::uint16_t);
  }
};

/// Collapse the symbol stream into (value, count) runs.
[[nodiscard]] RleEncoded rle_encode(std::span<const quant_t> symbols);

struct RleDecoded {
  std::vector<quant_t> symbols;
  sim::KernelCost cost;
};

/// Expand runs straight into `out` and return the kernel cost.  The run
/// streams are validated first; then runs that do not expand to exactly `n`
/// symbols throw DecodeError (kCorruptStream, "quant-codes").  Only after
/// both checks is `out` sized to n.
sim::KernelCost rle_decode_into(const RleEncoded& enc, std::size_t n,
                                sim::device_vector<quant_t>& out);

/// Expand runs back to the flat symbol stream in a new vector.
[[nodiscard]] RleDecoded rle_decode(const RleEncoded& enc);

/// Average encoded bits per original symbol for plain RLE (value+count pairs
/// over run lengths) — the paper's ⟨b⟩_RLE used by the workflow selector.
[[nodiscard]] double rle_bits_per_symbol(const RleEncoded& enc);

}  // namespace szp
