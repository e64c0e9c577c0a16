// szp::sim — reduce_by_key with the exact semantics of thrust::reduce_by_key
// used by cuSZ+'s run-length encoder (paper §V-B: "Run-length encoding is
// implemented using thrust::reduce_by_key").
//
// Consecutive equal keys collapse to one (key, reduced-value) pair.  RLE is
// the special case where values are all 1 and the reduction is +.  The tile
// decomposition runs block-parallel; tile boundaries that split a run are
// stitched in a serial merge pass (the head-flag carry a GPU implementation
// resolves with a decoupled look-back).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/check.hh"
#include "sim/launch.hh"
#include "sim/profile.hh"

namespace szp::sim {

template <typename Key, typename Count = std::uint32_t>
struct RunsOutput {
  std::vector<Key> keys;      ///< one entry per run
  std::vector<Count> counts;  ///< run lengths, same size as keys
};

/// Default tile: keys per block of the tile_runs pass.
inline constexpr std::size_t kRunTile = std::size_t{1} << 16;

/// Collapse consecutive equal keys into (key, run-length) pairs.
template <typename Key, typename Count = std::uint32_t>
RunsOutput<Key, Count> reduce_by_key(std::span<const Key> keys,
                                     std::size_t tile = kRunTile) {
  RunsOutput<Key, Count> out;
  const std::size_t n = keys.size();
  if (n == 0) return out;

  const std::size_t tiles = div_ceil(n, tile);
  // Caller-allocated worst-case outputs, exactly as thrust::reduce_by_key
  // takes them: every key could start a run, so each tile owns the
  // [t*tile, t*tile + tile) slice of the flat run arrays and compacts its
  // runs at the slice head.  Affine, disjoint, and statically provable.
  std::vector<Key> run_keys(n);
  std::vector<Count> run_counts(n);
  std::vector<std::uint64_t> tile_run_count(tiles);

  checked::launch("reduce_by_key/tile_runs", tiles,
                  checked::bufs(checked::in(keys, "keys"),
                                checked::out(std::span<Key>(run_keys), "run_keys"),
                                checked::out(std::span<Count>(run_counts), "run_counts"),
                                checked::out(std::span<std::uint64_t>(tile_run_count),
                                             "tile_run_count")),
                  contract::contract(
                      contract::reads("keys", contract::b() * tile,
                                      static_cast<std::int64_t>(tile)).clamp(),
                      contract::writes("run_keys", contract::b() * tile,
                                       static_cast<std::int64_t>(tile)).clamp(),
                      contract::writes("run_counts", contract::b() * tile,
                                       static_cast<std::int64_t>(tile)).clamp(),
                      contract::writes("tile_run_count", contract::b(), 1)),
                  [&, n, tile](std::size_t t, const auto& vkeys, const auto& vrk,
                               const auto& vrc, const auto& vcount) {
    const std::size_t lo = t * tile, hi = lo + tile < n ? lo + tile : n;
    std::size_t w = lo;
    Key cur = vkeys[lo];
    Count len = 1;
    for (std::size_t i = lo + 1; i < hi; ++i) {
      if (vkeys[i] == cur) {
        ++len;
      } else {
        vrk[w] = cur;
        vrc[w] = len;
        ++w;
        cur = vkeys[i];
        len = 1;
      }
    }
    vrk[w] = cur;
    vrc[w] = len;
    vcount[t] = w + 1 - lo;
  });

  // Stitch runs that straddle tile boundaries.
  for (std::size_t t = 0; t < tiles; ++t) {
    const std::size_t lo = t * tile;
    std::size_t start = 0;
    const auto runs = static_cast<std::size_t>(tile_run_count[t]);
    if (!out.keys.empty() && runs > 0 && out.keys.back() == run_keys[lo]) {
      out.counts.back() += run_counts[lo];
      start = 1;
    }
    out.keys.insert(out.keys.end(), run_keys.begin() + static_cast<std::ptrdiff_t>(lo + start),
                    run_keys.begin() + static_cast<std::ptrdiff_t>(lo + runs));
    out.counts.insert(out.counts.end(),
                      run_counts.begin() + static_cast<std::ptrdiff_t>(lo + start),
                      run_counts.begin() + static_cast<std::ptrdiff_t>(lo + runs));
  }
  return out;
}

/// Inverse: expand (key, count) runs back to the flat sequence.
template <typename Key, typename Count>
std::vector<Key> expand_runs(std::span<const Key> keys, std::span<const Count> counts) {
  std::size_t total = 0;
  for (auto c : counts) total += c;
  std::vector<Key> out;
  out.reserve(total);
  for (std::size_t r = 0; r < keys.size(); ++r) {
    out.insert(out.end(), counts[r], keys[r]);
  }
  return out;
}

/// Analytic GPU cost of reduce_by_key over n keys in kRunTile tiles: every
/// key read once, and the worst-case run arrays (one key and one count per
/// input key) and one run count per tile stored, in one launch.
template <typename Key, typename Count = std::uint32_t>
[[nodiscard]] KernelCost reduce_by_key_cost(std::size_t n) {
  KernelCost c;
  c.bytes_read = n * sizeof(Key);
  c.bytes_written =
      n * (sizeof(Key) + sizeof(Count)) + div_ceil(n, kRunTile) * sizeof(std::uint64_t);
  c.flops = 2 * n;  // compare + conditional increment
  c.parallel_items = n;
  c.pattern = AccessPattern::kCoalescedStreaming;
  // thrust::reduce_by_key runs several internal passes with intermediate
  // allocations; calibrated so the modeled stage matches the ~100-160 GB/s
  // the paper measures for it on V100 (§V-B, Table V).
  c.custom_factor = 0.08;
  return c;
}

}  // namespace szp::sim
