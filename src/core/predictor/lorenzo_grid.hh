// szp — launch geometry of the chunked predictor kernels (internal header).
// A block owns a box of `run` consecutive chunks along x and one chunk
// along y and z, clamped to the field, and touches nothing outside it:
// Lorenzo's construction and partial sums use runs of kLorenzoRun chunks,
// the coarse cuSZ kernel and both regression kernels one chunk per block.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/types.hh"
#include "sim/contract.hh"
#include "sim/launch.hh"

namespace szp::lorenzo_detail {

struct BlockGrid {
  ChunkShape cs;
  std::size_t bw = 0;  ///< block width along x: run * cs.cx
  sim::Dim3 dim;
};

[[nodiscard]] inline BlockGrid block_grid(const Extents& ext, std::size_t run) {
  const ChunkShape cs = ChunkShape::for_rank(ext.rank);
  const std::size_t bw = run * cs.cx;
  return {cs, bw,
          {static_cast<std::uint32_t>(sim::div_ceil(ext.nx, bw)),
           static_cast<std::uint32_t>(sim::div_ceil(ext.ny, cs.cy)),
           static_cast<std::uint32_t>(sim::div_ceil(ext.nz, cs.cz))}};
}

/// Call `f` with std::integral_constant<int, rank>, so a kernel body is
/// compiled once per rank (block_grid has already rejected other ranks).
template <typename F>
void dispatch_rank(int rank, F&& f) {
  switch (rank) {
    case 1: f(std::integral_constant<int, 1>{}); break;
    case 2: f(std::integral_constant<int, 2>{}); break;
    default: f(std::integral_constant<int, 3>{}); break;
  }
}

/// The box of block (bx, by, bz): origin and clamped extent.
struct Box {
  std::size_t x0, y0, z0;
  std::size_t w, h, d;
};

[[nodiscard]] inline Box box_of(const BlockGrid& g, const Extents& ext, std::uint32_t bx,
                                std::uint32_t by, std::uint32_t bz) {
  const std::size_t x0 = bx * g.bw, y0 = by * g.cs.cy, z0 = bz * g.cs.cz;
  return {x0, y0, z0, std::min(g.bw, ext.nx - x0), std::min(g.cs.cy, ext.ny - y0),
          std::min(g.cs.cz, ext.nz - z0)};
}

/// Footprint clause of `buf` for every block: its box of the row-major field.
[[nodiscard]] inline sim::contract::Clause box_clause(sim::contract::AccessKind a,
                                                      const char* buf, const BlockGrid& g,
                                                      const Extents& ext) {
  namespace ctr = sim::contract;
  return ctr::box(a, buf, ctr::bx() * g.bw, static_cast<std::int64_t>(g.bw),
                  ctr::by() * g.cs.cy, static_cast<std::int64_t>(g.cs.cy), ctr::bz() * g.cs.cz,
                  static_cast<std::int64_t>(g.cs.cz), static_cast<std::int64_t>(ext.nx),
                  static_cast<std::int64_t>(ext.ny), static_cast<std::int64_t>(ext.nz));
}

/// Footprint clause of a construct block's per-row outlier counts, `buf`
/// holding one count per (z, y, block column): the block's column, over
/// the rows of its box.
[[nodiscard]] inline sim::contract::Clause row_count_clause(const char* buf, const BlockGrid& g,
                                                            const Extents& ext) {
  namespace ctr = sim::contract;
  return ctr::writes_box(buf, ctr::bx(), 1, ctr::by() * g.cs.cy,
                         static_cast<std::int64_t>(g.cs.cy), ctr::bz() * g.cs.cz,
                         static_cast<std::int64_t>(g.cs.cz), g.dim.x,
                         static_cast<std::int64_t>(ext.ny), static_cast<std::int64_t>(ext.nz));
}

/// First position in [from, nnz) whose outlier index is at least `gi`, by
/// binary search over the strictly increasing indices of `vidx`: where the
/// outliers of the box row starting at field index `gi` begin.
template <typename VI>
[[nodiscard]] std::size_t first_outlier(const VI& vidx, std::size_t from, std::size_t nnz,
                                        std::size_t gi) {
  std::size_t lo = from, hi = nnz;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (vidx[mid] < gi) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace szp::lorenzo_detail
