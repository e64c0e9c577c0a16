// szp — the one product every predictor fills: quant-codes, the dense
// outlier array, the aux vector the archive carries after the header, and
// the analytic kernel cost.
//
// Lorenzo, regression and interpolation differ only in what the aux vector
// holds (nothing, per-chunk plane coefficients, or the raw anchors of the
// interpolation lattice plus its level), so one type serves all three, and
// the Workspace (core/workspace.hh) keeps exactly one of it.  Decode reuses
// the same slot in the other direction: the codec decodes the quant-codes
// into `quant`, the stage reads its aux into `coefficients`/`level`, and
// reconstruction takes `outlier_dense` as its n-element scratch.
#pragma once

#include <vector>

#include "core/types.hh"
#include "sim/aligned.hh"
#include "sim/profile.hh"

namespace szp {

struct PredictorProduct {
  sim::device_vector<quant_t> quant;          ///< one code per element
  sim::device_vector<qdiff_t> outlier_dense;  ///< zeros except out-of-range residuals
  /// Aux payload: regression's 4 plane coefficients per chunk (b0, b1, b2,
  /// b3), or interpolation's raw values on the 2^level anchor lattice.
  /// Lorenzo leaves it as it was.
  std::vector<float> coefficients;
  int level = 0;  ///< interpolation: the anchor level L actually used
  sim::KernelCost cost;
};

}  // namespace szp
