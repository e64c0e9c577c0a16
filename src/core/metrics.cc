#include "core/metrics.hh"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/eb.hh"
#include "sim/launch.hh"

namespace szp {

namespace {

/// The larger of two errors, or NaN if either is: a NaN error (a NaN in
/// either field) must survive every partial and merge, where `>` and
/// std::max would drop it and report a perfect match.
double max_or_nan(double a, double b) { return std::isnan(a) || a > b ? a : b; }

}  // namespace

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
          part.max_err = max_or_nan(part.max_err, std::abs(e));
        }
        return part;
      },
      [](const ErrorSums& a, const ErrorSums& b) {
        return ErrorSums{a.sum_sq + b.sum_sq, max_or_nan(a.max_err, b.max_err)};
      });
  m.max_abs_error = err.max_err;
  m.mse = err.sum_sq / static_cast<double>(original.size());
  // Only an exact match reads as infinite PSNR.  Otherwise the formula
  // stands: a NaN MSE gives NaN, and a constant original with a nonzero
  // error gives PSNR -inf and NRMSE +inf.
  if (m.mse == 0.0) {
    m.psnr_db = std::numeric_limits<double>::infinity();
    m.nrmse = 0.0;
  } else {
    m.psnr_db = 20.0 * std::log10(m.value_range) - 10.0 * std::log10(m.mse);
    m.nrmse = std::sqrt(m.mse) / m.value_range;
  }
  return m;
}

template DistortionMetrics compare_fields<float>(std::span<const float>,
                                                  std::span<const float>);
template DistortionMetrics compare_fields<double>(std::span<const double>,
                                                  std::span<const double>);

}  // namespace szp
