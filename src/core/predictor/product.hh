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
// How a predictor reaches the outlier section differs.  Regression and
// interpolation write a dense n-element array (`outlier_dense`) that a
// dense-to-sparse gather compacts, and scatter the section back into it on
// decode.  Lorenzo never builds an n-element outlier array: a construct
// block compacts the outliers of each row of its box into the slots at the
// start of that row (`outlier_slots`) and counts them (`row_outliers`), a
// merge writes the section from those rows in index order, and
// reconstruction adds the section's entries inside each block.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hh"
#include "sim/aligned.hh"
#include "sim/profile.hh"
#include "sim/sparse.hh"

namespace szp {

/// One outlier as a Lorenzo construct block compacts it: its column in the
/// box row it lies in, and its value.  The default constructor writes
/// nothing, so sizing the slot buffer touches no memory: only the slots
/// that receive outliers are ever written.
struct OutlierSlot {
  std::uint32_t col;  ///< x offset from the start of the box row
  qdiff_t value;

  OutlierSlot() {}  // NOLINT(modernize-use-equals-default): must not zero-initialize
  OutlierSlot(std::uint32_t c, qdiff_t v) : col(c), value(v) {}
};

struct PredictorProduct {
  sim::device_vector<quant_t> quant;  ///< one code per element
  sim::SparseVector<qdiff_t> outliers;  ///< the archive's outlier section, index order
  /// Regression and interpolation: zeros except out-of-range residuals.
  sim::device_vector<qdiff_t> outlier_dense;
  /// Lorenzo: the outliers of each box row, in the first slots of that
  /// row's own field range (core/predictor/lorenzo.hh).
  std::vector<OutlierSlot> outlier_slots;
  /// Lorenzo: outliers per box row, one entry per (z, y, block column).
  std::vector<std::uint16_t> row_outliers;
  /// Aux payload: regression's 4 plane coefficients per chunk (b0, b1, b2,
  /// b3), or interpolation's raw values on the 2^level anchor lattice.
  /// Lorenzo leaves it as it was.
  std::vector<float> coefficients;
  int level = 0;  ///< interpolation: the anchor level L actually used
  sim::KernelCost cost;
};

}  // namespace szp
