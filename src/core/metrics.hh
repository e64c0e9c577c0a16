// szp — distortion and ratio metrics reported by the paper's evaluation
// (compression ratio, PSNR, max pointwise error).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace szp {

/// A NaN in either field makes max_abs_error, mse, psnr_db and nrmse NaN;
/// psnr_db is +inf only when mse is 0.
struct DistortionMetrics {
  double max_abs_error = 0.0;
  double mse = 0.0;
  double psnr_db = 0.0;   ///< 20*log10(range) - 10*log10(mse)
  double nrmse = 0.0;     ///< sqrt(mse)/range
  double value_range = 0.0;
};

/// Pointwise comparison of original vs decompressed fields (must be the
/// same length).  Instantiated for float and double.
template <typename T>
[[nodiscard]] DistortionMetrics compare_fields(std::span<const T> original,
                                               std::span<const T> decompressed);

/// Vector convenience (avoids span-conversion noise at call sites).
template <typename T, typename A1, typename A2>
[[nodiscard]] DistortionMetrics compare_fields(const std::vector<T, A1>& original,
                                               const std::vector<T, A2>& decompressed) {
  return compare_fields(std::span<const T>(original.data(), original.size()),
                        std::span<const T>(decompressed.data(), decompressed.size()));
}

/// Compression ratio: original bytes / compressed bytes.
[[nodiscard]] inline double compression_ratio(std::size_t original_bytes,
                                              std::size_t compressed_bytes) {
  return compressed_bytes > 0
             ? static_cast<double>(original_bytes) / static_cast<double>(compressed_bytes)
             : 0.0;
}

}  // namespace szp
