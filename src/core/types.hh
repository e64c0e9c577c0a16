// szp — fundamental types shared across the compressor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace szp {

/// Quant-code symbol ("multi-byte symbol" in the paper: the enumeration of
/// in-range prediction residuals, §III-A.1).  Capacity defaults to 1024, so
/// one symbol spans two bytes.
using quant_t = std::uint16_t;

/// Signed residual / partial-sum accumulator.  Dual-quantization keeps all
/// reconstruction arithmetic in this integer domain (paper §IV-A.1b), which
/// is exact and lets the partial-sum reorder additions freely.
using qdiff_t = std::int32_t;

/// Row-major extents of a 1/2/3-D field; x is the fastest-varying axis.
struct Extents {
  std::size_t nx = 1;
  std::size_t ny = 1;
  std::size_t nz = 1;
  int rank = 1;

  static Extents d1(std::size_t nx) { return {nx, 1, 1, 1}; }
  static Extents d2(std::size_t ny, std::size_t nx) { return {nx, ny, 1, 2}; }
  static Extents d3(std::size_t nz, std::size_t ny, std::size_t nx) { return {nx, ny, nz, 3}; }

  [[nodiscard]] std::size_t count() const { return nx * ny * nz; }

  [[nodiscard]] std::size_t index(std::size_t z, std::size_t y, std::size_t x) const {
    return (z * ny + y) * nx + x;
  }

  [[nodiscard]] bool operator==(const Extents&) const = default;
};

/// Element type of the uncompressed field.  Doubles raise the Huffman CR
/// ceiling from 32x to 64x (paper §III) and permit error bounds below
/// float32 precision.
enum class DType : std::uint8_t { kFloat32 = 0, kFloat64 = 1 };

/// Bytes per element of `dt`.
[[nodiscard]] constexpr std::size_t dtype_size(DType dt) {
  switch (dt) {
    case DType::kFloat32: return sizeof(float);
    case DType::kFloat64: return sizeof(double);
  }
  throw std::invalid_argument("unsupported element type");
}

/// The one dtype dispatch: call `f` with a value of `dt`'s element type
/// (float{} or double{}), so a generic lambda instantiates its body once
/// per type and picks the instance at run time.
template <typename F>
decltype(auto) dispatch_dtype(DType dt, F&& f) {
  if (dt == DType::kFloat64) return std::forward<F>(f)(double{});
  return std::forward<F>(f)(float{});
}

template <typename T>
concept FieldElement = std::is_same_v<T, float> || std::is_same_v<T, double>;

/// A read-only, dtype-tagged view of one field's elements — the only way a
/// field enters the library.  Non-owning: the viewed storage must outlive
/// the call it is passed to.
class FieldView {
 public:
  /// Any contiguous range of float or double: std::vector (any allocator,
  /// so sim::device_vector too), std::span of const or mutable elements,
  /// and temporaries.  Implicit, so those call sites need no spelling out.
  template <typename R>
    requires std::ranges::contiguous_range<const R> && std::ranges::sized_range<const R> &&
             FieldElement<std::ranges::range_value_t<const R>>
  FieldView(const R& r)  // NOLINT(google-explicit-constructor)
      : data_(std::ranges::data(r)),
        count_(std::ranges::size(r)),
        dtype_(std::is_same_v<std::ranges::range_value_t<const R>, float> ? DType::kFloat32
                                                                          : DType::kFloat64) {}

  /// Raw element bytes of type `dtype` (a file image, a slab cut from a
  /// source).  Throws std::invalid_argument unless the byte count is a
  /// whole number of elements.
  FieldView(std::span<const std::uint8_t> bytes, DType dtype)
      : data_(bytes.data()), count_(bytes.size() / dtype_size(dtype)), dtype_(dtype) {
    if (bytes.size() % dtype_size(dtype) != 0) {
      throw std::invalid_argument("FieldView: " + std::to_string(bytes.size()) +
                                  " bytes is not a whole number of elements (" +
                                  std::to_string(dtype_size(dtype)) + " bytes each)");
    }
  }

  [[nodiscard]] DType dtype() const { return dtype_; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] const void* data() const { return data_; }
  [[nodiscard]] std::size_t size_bytes() const { return count_ * dtype_size(dtype_); }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {static_cast<const std::uint8_t*>(data_), size_bytes()};
  }

  /// Call `f` with the elements as std::span<const float> or
  /// std::span<const double>, per dtype().
  template <typename F>
  decltype(auto) visit(F&& f) const {
    return dispatch_dtype(dtype_, [&](auto tag) {
      using T = decltype(tag);
      return f(std::span<const T>(static_cast<const T*>(data_), count_));
    });
  }

 private:
  const void* data_ = nullptr;
  std::size_t count_ = 0;
  DType dtype_ = DType::kFloat32;
};

/// Quantizer configuration.  `capacity` is the number of representable
/// quant-codes (the histogram bin count / Huffman alphabet size); `radius`
/// is the zero point: code = residual + radius.
struct QuantConfig {
  std::uint32_t capacity = 1024;

  [[nodiscard]] std::int32_t radius() const { return static_cast<std::int32_t>(capacity / 2); }

  void validate() const {
    if (capacity < 4 || capacity > 65536 || (capacity & 1) != 0) {
      throw std::invalid_argument("QuantConfig: capacity must be even and in [4, 65536]");
    }
  }
};

/// Chunk (thread-block tile) shapes, matching the paper: 256 for 1-D,
/// 16x16 for 2-D, 8x8x8 for 3-D.  Chunks are compressed independently with
/// a zero prediction boundary, which is what makes reconstruction a
/// chunk-local partial sum.
struct ChunkShape {
  std::size_t cx = 256;
  std::size_t cy = 1;
  std::size_t cz = 1;

  static constexpr ChunkShape for_rank(int rank) {
    switch (rank) {
      case 1: return {256, 1, 1};
      case 2: return {16, 16, 1};
      case 3: return {8, 8, 8};
      default: throw std::invalid_argument("ChunkShape: rank must be 1, 2, or 3");
    }
  }

  [[nodiscard]] constexpr std::size_t count() const { return cx * cy * cz; }
};

}  // namespace szp
