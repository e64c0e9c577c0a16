// szp — block-wise linear-regression predictor (SZ2-style, Liang et al.
// Big Data'18), the alternative predictor the cuSZ+ paper names as future
// work ("implement other data prediction methods such as
// linear-regression-based predictors", §VII).
//
// Each chunk (same shapes as the Lorenzo chunks: 256 / 16x16 / 8x8x8) gets
// a least-squares plane fit f(z,y,x) = b0 + b1·x + b2·y + b3·z; residuals
// against the fitted plane are quantized exactly like Lorenzo residuals
// (code = round(residual/2eb) + radius, out-of-range residuals to the
// outlier section, compacted per box row as Lorenzo's construct does and
// merged by lorenzo_gather_outliers).  Unlike Lorenzo, reconstruction
// needs no partial sums — every element is independent given the block's
// coefficients — but the coefficients must ride in the archive (4 float32
// per block) and smooth data compresses worse than Lorenzo because
// residuals do not telescope.
//
// The error bound holds regardless of fit quality: reconstruction is
// d' = f(pos) + code·2eb with the *same* f used during construction.
#pragma once

#include <span>

#include "core/eb.hh"
#include "core/predictor/product.hh"
#include "core/types.hh"
#include "sim/profile.hh"

namespace szp {

/// Fit per-chunk planes and quantize the residuals; the product's
/// coefficients hold 4 per chunk (b0, b1, b2, b3), and its outliers the
/// gathered section.
template <typename T>
[[nodiscard]] PredictorProduct regression_construct(std::span<const T> data, const Extents& ext,
                                                    double eb_abs, const QuantConfig& quant);

/// The construct launch alone, into the caller's product with
/// capacity-preserving fills (see core/workspace.hh): one block per chunk
/// writes its codes and coefficients, and compacts each box row's outliers
/// into res.outlier_slots with their count in res.row_outliers, for
/// lorenzo_gather_outliers(ext, 1, res) to merge.  Leaves res.outliers as
/// it was.
template <typename T>
void regression_construct_into(std::span<const T> data, const Extents& ext, double eb_abs,
                               const QuantConfig& quant, PredictorProduct& res);

/// Reconstruct from codes + outliers + coefficients.  Fully parallel per
/// element (no scan passes); each block finds its rows' outliers by binary
/// search, so `outliers` must hold strictly increasing indices below n.
template <typename T>
sim::KernelCost regression_reconstruct(std::span<const quant_t> quant,
                                       const sim::SparseVector<qdiff_t>& outliers,
                                       std::span<const float> coefficients, const Extents& ext,
                                       double eb_abs, const QuantConfig& qcfg, std::span<T> out);

/// Number of chunks (hence coefficient quadruples) for a field.
[[nodiscard]] std::size_t regression_chunk_count(const Extents& ext);

}  // namespace szp
