#include "core/metrics.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/eb.hh"
#include "sim/launch.hh"

namespace szp {

template <typename T>
DistortionMetrics compare_fields(std::span<const T> original,
                                 std::span<const T> decompressed) {
  if (original.size() != decompressed.size()) {
    throw std::invalid_argument("compare_fields: size mismatch");
  }
  DistortionMetrics m;
  if (original.empty()) return m;

  const ValueRange range = ValueRange::of(original);
  m.value_range = range.span();

  // Block-reduced, so the MSE is summed in the same order at every thread
  // count.
  struct ErrorSums {
    double sum_sq = 0.0;
    double max_err = 0.0;
  };
  const ErrorSums err = sim::reduce_blocks(
      original.size(),
      [&](std::size_t begin, std::size_t end) {
        ErrorSums part;
        for (std::size_t k = begin; k < end; ++k) {
          const double e =
              static_cast<double>(original[k]) - static_cast<double>(decompressed[k]);
          part.sum_sq += e * e;
          const double ae = std::abs(e);
          if (ae > part.max_err) part.max_err = ae;
        }
        return part;
      },
      [](const ErrorSums& a, const ErrorSums& b) {
        return ErrorSums{a.sum_sq + b.sum_sq, std::max(a.max_err, b.max_err)};
      });
  m.max_abs_error = err.max_err;
  m.mse = err.sum_sq / static_cast<double>(original.size());
  if (m.mse > 0.0 && m.value_range > 0.0) {
    m.psnr_db = 20.0 * std::log10(m.value_range) - 10.0 * std::log10(m.mse);
    m.nrmse = std::sqrt(m.mse) / m.value_range;
  } else {
    m.psnr_db = std::numeric_limits<double>::infinity();
    m.nrmse = 0.0;
  }
  return m;
}

template DistortionMetrics compare_fields<float>(std::span<const float>,
                                                  std::span<const float>);
template DistortionMetrics compare_fields<double>(std::span<const double>,
                                                  std::span<const double>);

}  // namespace szp
