#include "core/rle/rle.hh"

#include <limits>
#include <stdexcept>
#include <string>

#include "core/error.hh"
#include "sim/check.hh"
#include "sim/launch.hh"
#include "sim/reduce_by_key.hh"

namespace szp {

RleEncoded rle_encode(std::span<const quant_t> symbols) {
  RleEncoded enc;
  enc.num_symbols = symbols.size();
  if (symbols.empty()) return enc;

  auto runs = sim::reduce_by_key<quant_t, std::uint64_t>(symbols);

  enc.values.reserve(runs.keys.size());
  enc.counts.reserve(runs.keys.size());
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint16_t>::max();
  for (std::size_t r = 0; r < runs.keys.size(); ++r) {
    std::uint64_t remaining = runs.counts[r];
    while (remaining > kMax) {
      enc.values.push_back(runs.keys[r]);
      enc.counts.push_back(static_cast<std::uint16_t>(kMax));
      remaining -= kMax;
    }
    enc.values.push_back(runs.keys[r]);
    enc.counts.push_back(static_cast<std::uint16_t>(remaining));
  }

  // The tile_runs pass; the run merge is host-side, so the store of the
  // compacted (value, count) pairs is added on top.
  enc.cost = sim::reduce_by_key_cost<quant_t, std::uint64_t>(symbols.size());
  enc.cost.bytes_written += enc.byte_size();
  return enc;
}

namespace {

/// Validate the (untrusted) run streams and return each run's output
/// offset (exclusive scan).  The sum is checked against the declared symbol
/// count *before* any output is sized, so a spliced count cannot trigger a
/// huge resize.
std::vector<std::uint64_t> run_offsets(const RleEncoded& enc) {
  if (enc.values.size() != enc.counts.size()) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "rle streams",
                      "values/counts size mismatch (" + std::to_string(enc.values.size()) +
                          " vs " + std::to_string(enc.counts.size()) + ")");
  }
  std::vector<std::uint64_t> offset(enc.counts.size() + 1, 0);
  for (std::size_t r = 0; r < enc.counts.size(); ++r) {
    offset[r + 1] = offset[r] + enc.counts[r];
  }
  if (offset.back() != enc.num_symbols) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "rle streams",
                      "run lengths sum to " + std::to_string(offset.back()) +
                          ", declared symbol count is " + std::to_string(enc.num_symbols));
  }
  return offset;
}

/// Parallel fill of each run's [offset[r], offset[r+1]) slice of `symbols`.
sim::KernelCost expand_runs(const RleEncoded& enc, std::span<const std::uint64_t> offset,
                            std::span<quant_t> symbols) {
  sim::KernelCost cost;
  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  // Each run writes [offset[r], offset[r+1]) — run lengths are data, so the
  // write footprint is data-dependent and the expand kernel honestly stays
  // on dynamic (word-shadow) checking.
  chk::launch("rle_decode/expand", enc.values.size(),
              chk::bufs(chk::in(std::span<const quant_t>(enc.values), "values"),
                        chk::in(offset, "offset"), chk::out(symbols, "symbols")),
              ctr::contract(ctr::reads("values", ctr::b(), 1),
                            ctr::reads("offset", ctr::b(), 2),
                            // The validated run-length sum is the exact
                            // expanded volume: the dynamic clause's bound.
                            ctr::writes_dyn("symbols",
                                            static_cast<std::int64_t>(enc.num_symbols))),
              [](std::size_t r, const auto& vvalues, const auto& voffset, const auto& vsym) {
    const auto lo = static_cast<std::size_t>(voffset[r]);
    const auto hi = static_cast<std::size_t>(voffset[r + 1]);
    vsym.note_write(lo, hi - lo);
    std::fill(vsym.data() + lo, vsym.data() + hi, vvalues[r]);
  });

  // Each run reads its value and its two bounding offsets and fills its
  // slice (the offset scan is host-side metadata validation, not a device
  // launch).
  cost.bytes_read = enc.values.size() * (sizeof(quant_t) + 2 * sizeof(std::uint64_t));
  cost.bytes_written = enc.num_symbols * sizeof(quant_t);
  cost.flops = enc.num_symbols;
  cost.parallel_items = enc.values.empty() ? 1 : enc.values.size();
  cost.pattern = sim::AccessPattern::kCoalescedStreaming;
  return cost;
}

}  // namespace

sim::KernelCost rle_decode_into(const RleEncoded& enc, std::size_t n,
                                sim::device_vector<quant_t>& out) {
  const auto offset = run_offsets(enc);
  if (enc.num_symbols != n) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "quant-codes",
                      "rle runs expand to " + std::to_string(enc.num_symbols) +
                          " symbols, the grid holds " + std::to_string(n));
  }
  out.resize(n);
  return expand_runs(enc, offset, out);
}

RleDecoded rle_decode(const RleEncoded& enc) {
  const auto offset = run_offsets(enc);
  RleDecoded dec;
  dec.symbols.resize(enc.num_symbols);
  dec.cost = expand_runs(enc, offset, dec.symbols);
  return dec;
}

double rle_bits_per_symbol(const RleEncoded& enc) {
  if (enc.num_symbols == 0) return 0.0;
  const double bits = static_cast<double>(enc.byte_size()) * 8.0;
  return bits / static_cast<double>(enc.num_symbols);
}

}  // namespace szp
