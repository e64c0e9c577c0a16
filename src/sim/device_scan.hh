// szp::sim — device-wide scan, mirroring cub::DeviceScan.
//
// Used by the Huffman "deflate" stage: per-chunk bit lengths are
// exclusive-scanned to obtain each chunk's output bit offset before the
// encoded fragments are concatenated.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/check.hh"
#include "sim/launch.hh"

namespace szp::sim {

/// Default scan tile: elements per block of both scan passes.
inline constexpr std::size_t kScanTile = 4096;

/// Exclusive prefix sum: out[i] = sum(in[0..i)).  Returns the grand total.
/// Two-pass tile decomposition (per-tile reduce, carry scan, per-tile scan),
/// the same decoupled structure cub uses; tiles run block-parallel.
template <typename T>
T device_exclusive_scan(std::span<const T> in, std::span<T> out,
                        std::size_t tile = kScanTile) {
  const std::size_t n = in.size();
  if (n == 0) return T{};
  const std::size_t tiles = div_ceil(n, tile);
  std::vector<T> tile_total(tiles);

  checked::launch("device_scan/tile_reduce", tiles,
                  checked::bufs(checked::in(in, "in"),
                                checked::out(std::span<T>(tile_total), "tile_total")),
                  contract::contract(
                      contract::reads("in", contract::b() * tile,
                                      static_cast<std::int64_t>(tile)).clamp(),
                      contract::writes("tile_total", contract::b(), 1)),
                  [&, n, tile](std::size_t t, const auto& vin, const auto& vtot) {
    const std::size_t lo = t * tile, hi = lo + tile < n ? lo + tile : n;
    T acc{};
    for (std::size_t i = lo; i < hi; ++i) acc = static_cast<T>(acc + vin[i]);
    vtot[t] = acc;
  });

  // Carry scan over tile totals (small, serial).
  T grand{};
  for (std::size_t t = 0; t < tiles; ++t) {
    const T tot = tile_total[t];
    tile_total[t] = grand;
    grand = static_cast<T>(grand + tot);
  }

  checked::launch("device_scan/tile_scan", tiles,
                  checked::bufs(checked::in(in, "in"),
                                checked::in(std::span<const T>(tile_total), "tile_carry"),
                                checked::out(out, "out")),
                  contract::contract(
                      contract::reads("in", contract::b() * tile,
                                      static_cast<std::int64_t>(tile)).clamp(),
                      contract::reads("tile_carry", contract::b(), 1),
                      contract::writes("out", contract::b() * tile,
                                       static_cast<std::int64_t>(tile)).clamp()),
                  [&, n, tile](std::size_t t, const auto& vin, const auto& vcarry,
                               const auto& vout) {
    const std::size_t lo = t * tile, hi = lo + tile < n ? lo + tile : n;
    T acc = vcarry[t];
    for (std::size_t i = lo; i < hi; ++i) {
      vout[i] = acc;
      acc = static_cast<T>(acc + vin[i]);
    }
  });
  return grand;
}

/// Inclusive prefix sum: out[i] = sum(in[0..i]).
template <typename T>
T device_inclusive_scan(std::span<const T> in, std::span<T> out,
                        std::size_t tile = kScanTile) {
  const T grand = device_exclusive_scan(in, out, tile);
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = static_cast<T>(out[i] + in[i]);
  return grand;
}

}  // namespace szp::sim
