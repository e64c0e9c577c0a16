// szp — multi-level interpolation predictor (SZ3-style, Zhao et al.
// ICDE'21 — the paper's reference [19], "dynamic spline interpolation").
//
// A dyadic hierarchy over the whole field: anchors on a coarse 2^L-stride
// lattice are stored as float; every finer level predicts its new points by
// interpolating *reconstructed* values along one axis at a time (cubic
// where four neighbors exist, linear at borders), and quantizes the
// residuals like the other predictors.  Compression and decompression walk
// the identical level/pass/point order, so predictions match exactly.
//
// That visit order follows from a point's coordinates alone, so the outlier
// section needs no dense array either way: compression collects the
// outliers in visit order and sorts them by index once, and decompression
// puts the section back in visit order with one counting pass over the
// 3L + 1 (level, pass) buckets and consumes it with one cursor.
//
// Compared to Lorenzo: interpolation sees neighbors on both sides, which
// wins on very smooth fields at loose bounds, but each level depends on the
// previous one, so reconstruction is level-synchronous rather than a single
// partial-sum pass.
#pragma once

#include <span>

#include "core/eb.hh"
#include "core/predictor/product.hh"
#include "core/types.hh"
#include "sim/profile.hh"

namespace szp {

/// Anchor level compression asks for: a stride of 2^5, clamped to the
/// field.  The archive stores the level it used, and decode reads that.
inline constexpr int kInterpolationLevel = 5;

/// Predict level by level and quantize the residuals.  In the product,
/// `coefficients` holds the anchor values rounded to float on the 2^level
/// lattice (raster order), each anchor point's code quantizes what that
/// rounding lost (the code `radius`, a zero residual, for float32 fields),
/// `level` is the L actually used, and `outliers` is the section.
template <typename T>
[[nodiscard]] PredictorProduct interpolation_construct(std::span<const T> data,
                                                       const Extents& ext, double eb_abs,
                                                       const QuantConfig& quant);

/// Workspace-reuse variant: fills the caller's product with
/// capacity-preserving assigns (see core/workspace.hh).
template <typename T>
void interpolation_construct_into(std::span<const T> data, const Extents& ext, double eb_abs,
                                  const QuantConfig& quant, PredictorProduct& res);

/// Rebuild the field from codes, the outlier section (strictly increasing
/// indices below n) and the anchors of the stored level.
template <typename T>
sim::KernelCost interpolation_reconstruct(std::span<const quant_t> quant,
                                          const sim::SparseVector<qdiff_t>& outliers,
                                          std::span<const float> anchors, int level,
                                          const Extents& ext, double eb_abs,
                                          const QuantConfig& qcfg, std::span<T> out);

/// Number of anchor values for a field at the given level.
[[nodiscard]] std::size_t interpolation_anchor_count(const Extents& ext, int level);

}  // namespace szp
