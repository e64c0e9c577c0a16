// szp — first-order Lorenzo predictor with dual quantization (paper §IV-A)
// and the three Lorenzo reconstruction strategies evaluated in Table II:
//
//   * lorenzo_reconstruct_coarse — cuSZ baseline: one (virtual) thread
//     serially reconstructs a whole chunk, with a divergent outlier branch
//     (quant-code 0 is the outlier placeholder, outliers live in
//     prequantized-*value* space).
//   * kNaivePartialSum    — proof-of-concept cuSZ+ kernel: chunk staged
//     through "shared memory", one item per thread, N-pass partial sums.
//   * kOptimizedPartialSum — the paper's optimized kernel: in-place fused
//     passes over coalesced rows, the x-scan per chunk row and the y/z
//     passes across a whole run of chunks.
//
// The host kernels fuse more than the paper's (DESIGN.md §2).  Construct
// compacts each block's outliers as it predicts them instead of writing a
// dense outlier array for a separate gather, and reconstruction rebuilds
// each block in a box-sized tile from its quant-codes and the sparse
// outliers instead of fusing them into an n-element residual field first.
// The modeled costs they report stay the paper's kernels'.
//
// Construction is chunked (256 / 16x16 / 8x8x8) with a zero prediction
// boundary per chunk, which removes inter-chunk dependencies and is exactly
// the property that makes reconstruction a chunk-local inclusive partial
// sum (the paper's §IV-B proof).  A host block of the construction and the
// partial-sum kernels covers a run of kLorenzoRun chunks along x and walks
// it row by row: the host form of the paper's coalesced access and thread
// coarsening.  Chunk shapes and their zero boundary do not depend on it.
#pragma once

#include <span>
#include <vector>

#include "core/eb.hh"
#include "core/predictor/product.hh"
#include "core/types.hh"
#include "sim/profile.hh"
#include "sim/sparse.hh"

namespace szp {

/// Where out-of-range residuals go.
enum class OutlierScheme {
  kResidual,  ///< cuSZ+ (modified quantization, §IV-B.1): store the residual
              ///< δ itself; quant-code is `radius` (δ=0); the decoder fuses
              ///< quant ⊕ outlier with no branch.
  kValue,     ///< cuSZ baseline: store the prequantized value d°; quant-code
              ///< 0 is a placeholder that the serial decoder branches on.
};

/// Chunks per host block along x in the construction and partial-sum
/// kernels (a compile-time constant, not an option: it moves host time and
/// the coalescing estimate only, never a byte).
inline constexpr std::size_t kLorenzoRun = 32;

/// Items per virtual thread of the partial-sum x-scan: the paper's tuned 8
/// (§IV-B.3b).  Only the word-granular checker's lane model reads it; the
/// host result and host time do not depend on it.
inline constexpr std::size_t kLorenzoSequentiality = 8;

/// The two partial-sum kernels of lorenzo_reconstruct.  The values are
/// fixed because parameterized test names print them.
enum class ReconstructVariant {
  kNaivePartialSum = 1,      ///< each chunk staged through a thread-private copy
  kOptimizedPartialSum = 2,  ///< in-place passes over the block's rows (production)
};

/// Which construction kernel the cost model attributes.  Both run the same
/// host code; only the modeled access pattern and calibration differ.
enum class ConstructVariant {
  kBaseline,  ///< cuSZ: shared-memory staging, 1 item/thread
  kOptimized, ///< cuSZ+: register reuse via in-warp shuffle, coarsened threads
};

/// Dual-quantized Lorenzo construction: prequant d° = round(d/2eb), predict
/// within the chunk, emit quant-codes, and the outliers compacted per block
/// (gathered into the archive's section by lorenzo_gather_outliers).
///
/// T is float or double (the paper supports both; doubles raise the VLE
/// compression-ratio ceiling from 32x to 64x).  Requires max|d|/(2*eb) <
/// 2^27 so residual arithmetic stays exact in qdiff_t; the Compressor
/// validates this before calling.  Prequant values beyond it saturate at
/// ±2^27 instead of overflowing.
///
/// Returns the product with quant-codes and the gathered outlier section.
template <typename T>
[[nodiscard]] PredictorProduct lorenzo_construct(
    std::span<const T> data, const Extents& ext, double eb_abs,
    const QuantConfig& quant, OutlierScheme scheme = OutlierScheme::kResidual,
    ConstructVariant variant = ConstructVariant::kOptimized);

/// The construct launch alone, into the caller's product with
/// capacity-preserving fills, so a reused `res` allocates nothing once its
/// buffers have grown to the field size (see core/workspace.hh).  Writes
/// res.quant; the outliers of each box row, compacted into the first slots
/// of that row's own range of res.outlier_slots (which is never
/// zero-filled), with their count in res.row_outliers; and res.cost: the
/// modeled cost of the paper's kernel, which writes a dense outlier array.
/// Leaves res.outliers, res.coefficients and res.level as they were.
template <typename T>
void lorenzo_construct_into(std::span<const T> data, const Extents& ext, double eb_abs,
                            const QuantConfig& quant, OutlierScheme scheme,
                            ConstructVariant variant, PredictorProduct& res);

/// Merge the box rows a construct of blocks `run` chunks wide compacted
/// (kLorenzoRun for lorenzo_construct_into, 1 for regression_construct_into)
/// into res.outliers in index order, with no sort: box rows in field order
/// are index order, so this is O(outliers + n / block width).  Returns the
/// modeled cost of the paper's gather over n residuals
/// (outlier_gather_cost).
sim::KernelCost lorenzo_gather_outliers(const Extents& ext, std::size_t run,
                                        PredictorProduct& res);

struct ReconstructConfig {
  ReconstructVariant variant = ReconstructVariant::kOptimizedPartialSum;
};

/// cuSZ+ fine-grained reconstruction (Algorithm 1, decompression half).
/// Each block rebuilds its box in a box-sized tile: q' = quant - radius,
/// plus the outliers that fall in the box (`outliers` holds strictly
/// increasing indices below n), then the partial sums, then d = sum * 2eb
/// into `out`.  Returns the modeled cost of the paper's in-place partial
/// sums over a fused n-element residual field.
template <typename T>
sim::KernelCost lorenzo_reconstruct(std::span<const quant_t> quant,
                                    const sim::SparseVector<qdiff_t>& outliers,
                                    const Extents& ext, double eb_abs, std::int32_t radius,
                                    std::span<T> out, const ReconstructConfig& cfg = {});

/// Modeled cost of the paper's decode-side outlier fusion: the fuse pass
/// (q' = quant - radius into an n-element residual field) and the scatter
/// of `nnz` outliers on top.  lorenzo_reconstruct does both inside its
/// blocks on the host.
[[nodiscard]] sim::KernelCost lorenzo_fuse_cost(std::size_t n, std::size_t nnz);

/// cuSZ baseline coarse-grained reconstruction: quant-codes plus a dense
/// value-space outlier array (placeholder code 0), one virtual thread per
/// chunk, serial raster order with the divergent outlier branch.
template <typename T>
sim::KernelCost lorenzo_reconstruct_coarse(std::span<const quant_t> quant,
                                           std::span<const qdiff_t> outlier_value_dense,
                                           const Extents& ext, double eb_abs,
                                           const QuantConfig& qcfg, std::span<T> out);

// --- Container conveniences (spans are not deduced from vectors) ----------

template <typename T, typename A>
[[nodiscard]] PredictorProduct lorenzo_construct(
    const std::vector<T, A>& data, const Extents& ext, double eb_abs,
    const QuantConfig& quant, OutlierScheme scheme = OutlierScheme::kResidual,
    ConstructVariant variant = ConstructVariant::kOptimized) {
  return lorenzo_construct(std::span<const T>(data.data(), data.size()), ext, eb_abs, quant,
                           scheme, variant);
}

template <typename T, typename A>
sim::KernelCost lorenzo_reconstruct_coarse(std::span<const quant_t> quant,
                                           std::span<const qdiff_t> outlier_value_dense,
                                           const Extents& ext, double eb_abs,
                                           const QuantConfig& qcfg, std::vector<T, A>& out) {
  return lorenzo_reconstruct_coarse(quant, outlier_value_dense, ext, eb_abs, qcfg,
                                    std::span<T>(out.data(), out.size()));
}

}  // namespace szp
