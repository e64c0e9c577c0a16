// szp — user-facing error-bound specification.
//
// The paper evaluates with error bounds *relative to the value range*
// (e.g., rel-eb 1e-4 in Table VII); SZ also supports absolute bounds.  The
// bound is resolved to an absolute `eb` before compression; dual
// quantization then guarantees |decompressed - original| < eb pointwise.
#pragma once

#include <algorithm>
#include <cmath>
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
  /// exact, so the range is the same at every thread count.
  template <typename T>
  static ValueRange of(std::span<const T> data) {
    return sim::reduce_blocks(
        data.size(),
        [data](std::size_t begin, std::size_t end) {
          T lo = data[begin], hi = data[begin];
          bool fin = true;
          for (std::size_t i = begin; i < end; ++i) {
            const T v = data[i];
            fin = fin && std::isfinite(v);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
          return ValueRange{static_cast<double>(lo), static_cast<double>(hi), fin};
        },
        merge);
  }

  template <typename T, typename Alloc>
  static ValueRange of(const std::vector<T, Alloc>& data) {
    return of(std::span<const T>(data.data(), data.size()));
  }
};

}  // namespace szp
