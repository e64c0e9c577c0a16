// szp — user-facing error-bound specification.
//
// The paper evaluates with error bounds *relative to the value range*
// (e.g., rel-eb 1e-4 in Table VII); SZ also supports absolute bounds.  The
// bound is resolved to an absolute `eb` before compression; dual
// quantization then guarantees |decompressed - original| < eb pointwise.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/launch.hh"

namespace szp {

enum class EbMode {
  kAbsolute,  ///< eb given directly in data units
  kRelative,  ///< eb = value * (max - min) of the field
  kPsnr,      ///< eb derived from a target PSNR in dB (SZ's PSNR mode,
              ///< paper §VI): assuming near-uniform quantization error,
              ///< mse = eb²/3, so eb = range · sqrt(3) · 10^(-psnr/20).
};

struct ErrorBound {
  EbMode mode = EbMode::kRelative;
  double value = 1e-4;

  static ErrorBound absolute(double eb) { return {EbMode::kAbsolute, eb}; }
  static ErrorBound relative(double eb) { return {EbMode::kRelative, eb}; }
  static ErrorBound psnr(double target_db) { return {EbMode::kPsnr, target_db}; }

  /// Resolve to an absolute bound given the field's value range.
  [[nodiscard]] double resolve(double range) const {
    if (value <= 0.0 || !std::isfinite(value)) {
      throw std::invalid_argument("ErrorBound: value must be positive and finite");
    }
    switch (mode) {
      case EbMode::kAbsolute: return value;
      case EbMode::kRelative: return value * (range > 0.0 ? range : 1.0);
      case EbMode::kPsnr:
        return (range > 0.0 ? range : 1.0) * std::sqrt(3.0) * std::pow(10.0, -value / 20.0);
    }
    return value;
  }
};

/// Min/max of a field (used both to resolve relative bounds and for PSNR).
/// Also tracks finiteness: NaN/Inf would silently defeat min/max scans.
struct ValueRange {
  double min = 0.0;
  double max = 0.0;
  bool finite = true;

  [[nodiscard]] double span() const { return max - min; }
  [[nodiscard]] double max_abs() const { return std::max(std::abs(min), std::abs(max)); }

  /// Range of the union of two ranges (exact: min, max and && commute).
  [[nodiscard]] static ValueRange merge(const ValueRange& a, const ValueRange& b) {
    return {std::min(a.min, b.min), std::max(a.max, b.max), a.finite && b.finite};
  }

  /// A block-reduce (sim::reduce_blocks): parallel over fixed blocks, and
  /// exact, so the range is the same at every thread count (only the sign
  /// of a zero extreme may depend on the lane split).
  ///
  /// Each block's partial is thread-coarsened: 16 independent lanes of lo,
  /// hi and a non-finite flag instead of one loop-carried min/max chain,
  /// merged at the end, then a scalar tail.  Every lane update is a select,
  /// so the lane loop vectorizes under plain SSE2 for float and double
  /// (check with -fopt-info-vec-optimized: a short-circuit `&&` flag or
  /// 8 lanes leave it scalar).
  template <typename T>
  static ValueRange of(std::span<const T> data) {
    return sim::reduce_blocks(
        data.size(),
        [data](std::size_t begin, std::size_t end) {
          constexpr std::size_t kLanes = 16;
          constexpr T kMax = std::numeric_limits<T>::max();
          // |v| <= max is false exactly for NaN and +-Inf.
          const auto flag = [](T v, T bad) { return std::fabs(v) <= kMax ? bad : T{1}; };
          T lo[kLanes], hi[kLanes], bad[kLanes];
          for (std::size_t j = 0; j < kLanes; ++j) {
            lo[j] = data[begin];
            hi[j] = data[begin];
            bad[j] = T{0};
          }
          std::size_t i = begin;
          for (; i + kLanes <= end; i += kLanes) {
            for (std::size_t j = 0; j < kLanes; ++j) {
              const T v = data[i + j];
              lo[j] = v < lo[j] ? v : lo[j];
              hi[j] = v > hi[j] ? v : hi[j];
              bad[j] = flag(v, bad[j]);
            }
          }
          T l = lo[0], h = hi[0], b = bad[0];
          for (std::size_t j = 1; j < kLanes; ++j) {
            l = lo[j] < l ? lo[j] : l;
            h = hi[j] > h ? hi[j] : h;
            b = bad[j] > b ? bad[j] : b;
          }
          for (; i < end; ++i) {
            const T v = data[i];
            l = v < l ? v : l;
            h = v > h ? v : h;
            b = flag(v, b);
          }
          return ValueRange{static_cast<double>(l), static_cast<double>(h), b == T{0}};
        },
        merge);
  }

  template <typename T, typename Alloc>
  static ValueRange of(const std::vector<T, Alloc>& data) {
    return of(std::span<const T>(data.data(), data.size()));
  }
};

}  // namespace szp
