// szp::sim — device-wide histogram, mirroring the privatized-bins GPU
// algorithm of Gómez-Luna et al. that cuSZ/cuSZ+ use (paper §V-C.2, ref 34).
//
// Each block accumulates into a private copy of the bins (the GPU's
// shared-memory replication to dodge atomic contention), then private copies
// are merged by a second kernel over disjoint bin ranges.  Both kernels go
// through checked-launch registration so --check covers the histogram, and
// the tile kernel models its cooperating threads: lanes own contiguous
// sub-stripes of the tile and update the block-private bins with atomicAdds,
// which word-granular checking (check.hh tier 2) treats as non-conflicting —
// exactly racecheck's view of shared-memory histogram privatization.
// Out-of-range values are ignored (callers guarantee range).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/check.hh"
#include "sim/launch.hh"
#include "sim/profile.hh"

namespace szp::sim {

/// Sub-rows per tile, the replication factor of Gómez-Luna et al.: lane l of
/// a tile adds into sub-row l mod kHistogramSubRows, and each group of that
/// many lanes steps in lockstep, so consecutive increments never share a
/// counter even when every code falls in one bin.
inline constexpr std::size_t kHistogramSubRows = 4;

/// Bins each merge block sums.
inline constexpr std::size_t kHistogramMergeBins = 256;

/// Workspace-reuse variant: fills `bins` (and uses `priv` as the private-row
/// scratch) with capacity-preserving assigns, so repeated calls at the same
/// size allocate nothing (see core/workspace.hh).  A tile's private row holds
/// its kHistogramSubRows sub-rows bin-interleaved (bin v of sub-row k at
/// v·kHistogramSubRows + k); the counters are 32-bit, so `tile` stays below
/// 2^32 codes.
template <typename T>
void device_histogram_into(std::span<const T> data, std::size_t num_bins,
                           std::vector<std::uint64_t>& bins,
                           std::vector<std::uint32_t>& priv,
                           std::size_t tile = 1 << 16) {
  constexpr std::size_t kSub = kHistogramSubRows;
  bins.assign(num_bins, 0);
  const std::size_t n = data.size();
  if (n == 0 || num_bins == 0) return;
  const std::size_t tiles = div_ceil(n, tile);
  const std::size_t row = num_bins * kSub;

  // Kernel 1: every block fills its private row of bins (shared-memory
  // replication), kLanes threads striding over the tile.
  priv.assign(tiles * row, 0);
  checked::launch(
      "histogram/tile_bins", tiles,
      checked::bufs(checked::in(data, "data"),
                    checked::inout(std::span<std::uint32_t>(priv), "priv_bins")),
      contract::contract(
          contract::reads("data", contract::b() * tile, static_cast<std::int64_t>(tile)).clamp(),
          contract::updates("priv_bins", contract::b() * row, static_cast<std::int64_t>(row))),
      [&](std::size_t t, const auto& vdata, const auto& vpriv) {
        const std::size_t lo = t * tile;
        const std::size_t hi = std::min(lo + tile, n);
        const std::size_t base = t * row;
        constexpr std::size_t kLanes = 32;
        const std::size_t per_lane = div_ceil(hi - lo, kLanes);
        // The tile reads all its codes and may update any counter of its
        // row.  Word-granular checking models each update as an atomic from
        // its lane; otherwise both footprints are declared in bulk, so the
        // interval log keeps one record each however the lanes interleave.
        const bool lane_atomics = vpriv.word_granular();
        vdata.note_read(lo, hi - lo);
        if (!lane_atomics) vpriv.note_rw(base, row);
        const T* codes = vdata.data();
        std::uint32_t* counters = vpriv.data();
        for (std::size_t g = 0; g < kLanes; g += kSub) {
          // Lane g+k owns [first[k], first[k] + len[k]) and sub-row k; the
          // group steps together while every lane has codes left, then
          // drains each tail.
          const auto add = [&](std::size_t k, std::size_t i) {
            const auto v = static_cast<std::size_t>(codes[i]);
            if (v >= num_bins) return;
            if (lane_atomics) {
              checked::this_thread(static_cast<std::uint32_t>(g + k));
              vpriv.atomic_add(base + v * kSub + k, 1);
            } else {
              ++counters[base + v * kSub + k];
            }
          };
          std::array<std::size_t, kSub> first{};
          std::array<std::size_t, kSub> len{};
          std::size_t steps = per_lane;
          for (std::size_t k = 0; k < kSub; ++k) {
            first[k] = std::min(lo + (g + k) * per_lane, hi);
            len[k] = std::min(first[k] + per_lane, hi) - first[k];
            steps = std::min(steps, len[k]);
          }
          for (std::size_t j = 0; j < steps; ++j) {
            for (std::size_t k = 0; k < kSub; ++k) add(k, first[k] + j);
          }
          for (std::size_t k = 0; k < kSub; ++k) {
            for (std::size_t j = steps; j < len[k]; ++j) add(k, first[k] + j);
          }
        }
        checked::barrier();
      });

  // Kernel 2: merge — each block owns a disjoint range of bins and sums
  // them over every tile's sub-rows.
  constexpr std::size_t kMergeBins = kHistogramMergeBins;
  checked::launch(
      "histogram/merge", div_ceil(num_bins, kMergeBins),
      checked::bufs(checked::in(std::span<const std::uint32_t>(priv), "priv_bins"),
                    checked::out(std::span<std::uint64_t>(bins), "bins")),
      contract::contract(
          contract::reads("priv_bins", contract::b() * (kMergeBins * kSub), kMergeBins * kSub)
              .strided(static_cast<std::int64_t>(tiles), static_cast<std::int64_t>(row))
              .clamp(),
          contract::writes("bins", contract::b() * kMergeBins, kMergeBins).clamp()),
      [&](std::size_t blk, const auto& vpriv, const auto& vbins) {
        const std::size_t b0 = blk * kMergeBins;
        const std::size_t b1 = std::min(b0 + kMergeBins, num_bins);
        for (std::size_t b = b0; b < b1; ++b) {
          std::uint64_t sum = 0;
          for (std::size_t t = 0; t < tiles; ++t) {
            for (std::size_t k = 0; k < kSub; ++k) sum += vpriv[t * row + b * kSub + k];
          }
          vbins[b] = sum;
        }
      });
}

template <typename T>
std::vector<std::uint64_t> device_histogram(std::span<const T> data,
                                            std::size_t num_bins,
                                            std::size_t tile = 1 << 16) {
  std::vector<std::uint64_t> bins;
  std::vector<std::uint32_t> priv;
  device_histogram_into(data, num_bins, bins, priv, tile);
  return bins;
}

/// Analytic GPU cost of the histogram kernel over n elements of width
/// `elem_bytes` with `num_bins` bins.
[[nodiscard]] inline KernelCost histogram_cost(std::size_t n, std::size_t elem_bytes,
                                               std::size_t num_bins) {
  KernelCost c;
  c.bytes_read = n * elem_bytes;
  c.bytes_written = num_bins * sizeof(std::uint32_t);
  c.flops = n;  // one bin update per element
  c.parallel_items = n;
  c.pattern = AccessPattern::kAtomicHeavy;
  return c;
}

/// The modeled cost of the compressor's histogram stage: histogram_cost()
/// with the traffic of the paper's kernel — one row of 64-bit bins per
/// `tile` elements, merged kHistogramMergeBins bins per block — as that
/// kernel's footprint contract declares it.  The host kernel above splits
/// each row into sub-rows; the modeled clock keeps the paper's kernel.
[[nodiscard]] inline KernelCost histogram_stage_cost(std::size_t n, std::size_t elem_bytes,
                                                     std::size_t num_bins,
                                                     std::size_t tile = 1 << 16) {
  KernelCost c = histogram_cost(n, elem_bytes, num_bins);
  const std::size_t tiles = div_ceil(n, tile);
  const std::size_t rows = tiles * num_bins;
  // A merge block reads its window of every row, clamped only at the end
  // of the rows, so on a narrow alphabet it reads into the rows after: the
  // window starting u rows from the end holds min(width, u·num_bins − b0)
  // bins, short for the last `short_rows` rows.
  std::size_t merged = 0;
  for (std::size_t b0 = 0; b0 < num_bins; b0 += kHistogramMergeBins) {
    const std::size_t short_rows =
        std::min(tiles, div_ceil(kHistogramMergeBins + b0, num_bins) - 1);
    merged += (tiles - short_rows) * kHistogramMergeBins +
              num_bins * short_rows * (short_rows + 1) / 2 - b0 * short_rows;
  }
  constexpr std::size_t kBin = sizeof(std::uint64_t);
  c.bytes_read = n * elem_bytes + (rows + merged) * kBin;  // codes, row updates, merge
  c.bytes_written = (rows + num_bins) * kBin;              // row updates, bins
  c.launches = 2;
  return c;
}

}  // namespace szp::sim
