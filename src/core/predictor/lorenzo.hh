// szp — first-order Lorenzo predictor with dual quantization (paper §IV-A)
// and the three Lorenzo reconstruction strategies evaluated in Table II:
//
//   * kCoarseChunkSerial  — cuSZ baseline: one (virtual) thread serially
//     reconstructs a whole chunk, with a divergent outlier branch
//     (quant-code 0 is the outlier placeholder, outliers live in
//     prequantized-*value* space).
//   * kNaivePartialSum    — proof-of-concept cuSZ+ kernel: chunk staged
//     through "shared memory", one item per thread, N-pass partial sums.
//   * kOptimizedPartialSum — the paper's optimized kernel: in-place fused
//     passes over coalesced rows, the x-scan per chunk row and the y/z
//     passes across a whole run of chunks.
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

enum class ReconstructVariant {
  kCoarseChunkSerial,    ///< one chunk per block, serial raster order
  kNaivePartialSum,      ///< each chunk staged through a thread-private copy
  kOptimizedPartialSum,  ///< in-place passes over the block's rows (production)
};

/// Which construction kernel the cost model attributes.  Both run the same
/// host code; only the modeled access pattern and calibration differ.
enum class ConstructVariant {
  kBaseline,  ///< cuSZ: shared-memory staging, 1 item/thread
  kOptimized, ///< cuSZ+: register reuse via in-warp shuffle, coarsened threads
};

/// Dual-quantized Lorenzo construction: prequant d° = round(d/2eb), predict
/// within the chunk, emit quant-codes and a dense outlier array (gathered to
/// sparse by a separate stage, as in the paper's pipeline).
///
/// T is float or double (the paper supports both; doubles raise the VLE
/// compression-ratio ceiling from 32x to 64x).  Requires max|d|/(2*eb) <
/// 2^27 so residual arithmetic stays exact in qdiff_t; the Compressor
/// validates this before calling.  Prequant values beyond it saturate at
/// ±2^27 instead of overflowing.
template <typename T>
[[nodiscard]] PredictorProduct lorenzo_construct(
    std::span<const T> data, const Extents& ext, double eb_abs,
    const QuantConfig& quant, OutlierScheme scheme = OutlierScheme::kResidual,
    ConstructVariant variant = ConstructVariant::kOptimized);

/// Workspace-reuse variant: fills the caller's product with
/// capacity-preserving assigns, so a reused `res` allocates nothing once
/// its buffers have grown to the field size (see core/workspace.hh).
/// Leaves res.coefficients and res.level as they were.
template <typename T>
void lorenzo_construct_into(std::span<const T> data, const Extents& ext, double eb_abs,
                            const QuantConfig& quant, OutlierScheme scheme,
                            ConstructVariant variant, PredictorProduct& res);

struct ReconstructConfig {
  ReconstructVariant variant = ReconstructVariant::kOptimizedPartialSum;
};

/// cuSZ+ fine-grained reconstruction (Algorithm 1, decompression half).
/// `qprime` is the *fused* residual field: (quant - radius) with sparse
/// outliers already scattered in; it is consumed in place (the partial sums
/// overwrite it with the reconstructed prequant values).
/// Writes d = partial_sum * 2eb into `out`.
template <typename T>
sim::KernelCost lorenzo_reconstruct_fused(std::span<qdiff_t> qprime, const Extents& ext,
                                          double eb_abs, std::span<T> out,
                                          const ReconstructConfig& cfg = {});

/// cuSZ baseline coarse-grained reconstruction: quant-codes plus a dense
/// value-space outlier array (placeholder code 0), one virtual thread per
/// chunk, serial raster order with the divergent outlier branch.
template <typename T>
sim::KernelCost lorenzo_reconstruct_coarse(std::span<const quant_t> quant,
                                           std::span<const qdiff_t> outlier_value_dense,
                                           const Extents& ext, double eb_abs,
                                           const QuantConfig& qcfg, std::span<T> out);

/// Helper shared by the decompressor: q' = (quant - radius), then callers
/// scatter outliers on top.  Returns the kernel cost of the fuse pass.
sim::KernelCost fuse_quant_codes(std::span<const quant_t> quant, std::int32_t radius,
                                 std::span<qdiff_t> qprime_out);

// --- Container conveniences (spans are not deduced from vectors) ----------

template <typename T, typename A>
[[nodiscard]] PredictorProduct lorenzo_construct(
    const std::vector<T, A>& data, const Extents& ext, double eb_abs,
    const QuantConfig& quant, OutlierScheme scheme = OutlierScheme::kResidual,
    ConstructVariant variant = ConstructVariant::kOptimized) {
  return lorenzo_construct(std::span<const T>(data.data(), data.size()), ext, eb_abs, quant,
                           scheme, variant);
}

template <typename T, typename Aq, typename Ao>
sim::KernelCost lorenzo_reconstruct_fused(std::vector<qdiff_t, Aq>& qprime, const Extents& ext,
                                          double eb_abs, std::vector<T, Ao>& out,
                                          const ReconstructConfig& cfg = {}) {
  return lorenzo_reconstruct_fused(std::span<qdiff_t>(qprime.data(), qprime.size()), ext,
                                   eb_abs, std::span<T>(out.data(), out.size()), cfg);
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
