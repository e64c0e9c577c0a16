// szp — the one product every predictor fills: quant-codes, the outlier
// section, the aux vector the archive carries after the header, and the
// analytic kernel cost.
//
// Lorenzo, regression and interpolation differ only in what the aux vector
// holds (nothing, per-chunk plane coefficients, or the raw anchors of the
// interpolation lattice plus its level), so one type serves all three, and
// the Workspace (core/workspace.hh) keeps exactly one of it.  Decode reuses
// the same slot in the other direction: the archive's outlier section is
// read into `outliers`, the codec decodes the quant-codes into `quant`, and
// the stage reads its aux into `coefficients`/`level`.
//
// No predictor builds an n-element outlier array.  A Lorenzo or regression
// construct block compacts the outliers of each row of its box into the
// slots at the start of that row (`outlier_slots`) and counts them
// (`row_outliers`), and one merge writes the section from those rows in
// index order.  Interpolation visits points level by level, so it collects
// its outliers in visit order and sorts them by index once.  Every
// reconstruction adds the section's entries as it rebuilds the values.
//
// The modeled costs stay the paper's kernels, which do build the dense
// array: a cuSPARSE-style gather compacts it, and decode scatters the
// section back into it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hh"
#include "sim/aligned.hh"
#include "sim/launch.hh"
#include "sim/profile.hh"
#include "sim/sparse.hh"

namespace szp {

/// One outlier as a Lorenzo or regression construct block compacts it: its
/// column in the box row it lies in, and its value.  The default
/// constructor writes nothing, so sizing the slot buffer touches no memory:
/// only the slots that receive outliers are ever written.
struct OutlierSlot {
  std::uint32_t col;  ///< x offset from the start of the box row
  qdiff_t value;

  OutlierSlot() {}  // NOLINT(modernize-use-equals-default): must not zero-initialize
  OutlierSlot(std::uint32_t c, qdiff_t v) : col(c), value(v) {}
};

struct PredictorProduct {
  sim::device_vector<quant_t> quant;  ///< one code per element
  sim::SparseVector<qdiff_t> outliers;  ///< the archive's outlier section, index order
  /// Lorenzo and regression: the outliers of each box row, in the first
  /// slots of that row's own field range (core/predictor/lorenzo.hh).
  std::vector<OutlierSlot> outlier_slots;
  /// Lorenzo and regression: outliers per box row, one entry per (z, y,
  /// block column).
  std::vector<std::uint16_t> row_outliers;
  /// Aux payload: regression's 4 plane coefficients per chunk (b0, b1, b2,
  /// b3), or interpolation's raw values on the 2^level anchor lattice.
  /// Lorenzo leaves it as it was.
  std::vector<float> coefficients;
  int level = 0;  ///< interpolation: the anchor level L actually used
  sim::KernelCost cost;
};

/// Modeled cost of the paper's outlier gather: a count and a fill over the
/// n residuals of the dense outlier array, in 64 Ki-element tiles, that
/// keep its nnz nonzeros.
[[nodiscard]] inline sim::KernelCost outlier_gather_cost(std::size_t n, std::size_t nnz) {
  const std::size_t tiles = sim::div_ceil(n, std::size_t{1} << 16);
  sim::KernelCost c = sim::gather_cost(n, sizeof(qdiff_t), nnz, sizeof(std::uint64_t));
  c.bytes_read = 2 * n * sizeof(qdiff_t) + tiles * 2 * sizeof(std::size_t);
  c.bytes_written = tiles * sizeof(std::size_t) + nnz * (sizeof(qdiff_t) + sizeof(std::uint64_t));
  c.launches = 2;
  return c;
}

/// Modeled cost of the paper's decode-side scatter of nnz outliers into the
/// dense residual array: each reads its index and value and updates one
/// word.  Regression and interpolation report it; Lorenzo reports its fuse
/// and scatter pair instead (lorenzo_fuse_cost).
[[nodiscard]] inline sim::KernelCost outlier_scatter_cost(std::size_t nnz) {
  sim::KernelCost c = sim::scatter_cost(nnz, sizeof(qdiff_t), sizeof(std::uint64_t));
  c.bytes_read += nnz * sizeof(qdiff_t);
  return c;
}

}  // namespace szp
