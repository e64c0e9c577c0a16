// szp — little-endian byte-stream serialization for archives.
//
// The reader side treats the stream as untrusted: every length field is
// validated against the remaining bytes with overflow-safe arithmetic
// *before* any allocation, and failures surface as szp::DecodeError tagged
// with the segment the caller declared via set_segment().
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/error.hh"

namespace szp {

/// The two damage verdicts of every reader of untrusted bytes, shared by
/// ByteReader and by readers that do not hold their bytes (the slab
/// container's positional directory reader, core/streaming.cc), so the same
/// bytes get the same verdict whichever reader parses them.
///
/// A fixed field of `n` bytes with fewer bytes `remaining` is truncated.
inline void require_fixed(std::size_t n, std::size_t remaining, const char* segment) {
  if (n > remaining) {
    throw DecodeError(DecodeErrorKind::kTruncated, segment,
                      "need " + std::to_string(n) + " bytes, have " + std::to_string(remaining));
  }
}

/// A length field of `n` elements of `elem_size` bytes that the `remaining`
/// bytes cannot hold overflows.  Divides instead of multiplying, so a
/// crafted `n` close to UINT64_MAX cannot wrap the check.
inline void require_length(std::uint64_t n, std::size_t elem_size, std::size_t remaining,
                           const char* segment) {
  if (n > remaining / elem_size) {
    throw DecodeError(DecodeErrorKind::kLengthOverflow, segment,
                      "length field " + std::to_string(n) + " x " + std::to_string(elem_size) +
                          " bytes exceeds the " + std::to_string(remaining) + " remaining");
  }
}

/// Little-endian writer, in one of three modes:
///   * growing (the default): appends to a buffer of its own, which take()
///     hands over;
///   * in place, over a caller's span: writes from the span's first byte and
///     never past its end.  The span was sized for exactly these writes (an
///     archive, core/compressor.cc, or a bundle, core/bundle.cc, allocated
///     once), so a write that does not fit is a std::logic_error;
///   * counting (counting()): stores nothing, so its size() after the same
///     calls is the size of that span.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::span<std::uint8_t> out) : mode_(Mode::kInPlace), out_(out) {}

  [[nodiscard]] static ByteWriter counting() {
    ByteWriter w;
    w.mode_ = Mode::kCounting;
    return w;
  }

  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(&v, sizeof(T));
  }

  template <typename T>
  void put_span(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    write(v.data(), v.size_bytes());
  }

  template <typename T, typename Alloc>
  void put_vector(const std::vector<T, Alloc>& v) {
    put_span(std::span<const T>(v.data(), v.size()));
  }

  /// The next `n` bytes, for the caller to fill in place (the Huffman codec
  /// deflates its payload straight into the archive): empty when counting,
  /// and in growing mode valid until the next write.
  [[nodiscard]] std::span<std::uint8_t> claim(std::size_t n) {
    if (mode_ == Mode::kGrowing) {
      buf_.resize(buf_.size() + n);
      return std::span<std::uint8_t>(buf_).last(n);
    }
    if (mode_ == Mode::kCounting) {
      pos_ += n;
      return {};
    }
    if (n > out_.size() - pos_) {
      throw std::logic_error("ByteWriter: " + std::to_string(n) + " bytes do not fit the " +
                             std::to_string(out_.size() - pos_) + " left of an exact-size span");
    }
    pos_ += n;
    return out_.subspan(pos_ - n, n);
  }

  /// Pre-size the underlying buffer (capacity hint, e.g. a streaming
  /// container's estimated total from its first packed slab) so incremental
  /// packing does not pay repeated reallocation-and-copy.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  /// Bytes written (or counted) so far.
  [[nodiscard]] std::size_t size() const { return mode_ == Mode::kGrowing ? buf_.size() : pos_; }

 private:
  enum class Mode : std::uint8_t { kGrowing, kInPlace, kCounting };

  void write(const void* p, std::size_t n) {
    const std::span<std::uint8_t> to = claim(n);
    if (!to.empty()) std::memcpy(to.data(), p, n);
  }

  Mode mode_ = Mode::kGrowing;
  std::vector<std::uint8_t> buf_;  ///< growing mode's buffer
  std::span<std::uint8_t> out_;    ///< in-place mode's span
  std::size_t pos_ = 0;            ///< bytes written in place, or counted
};

/// The bytes `write(ByteWriter&)` writes, counted without storing any: the
/// size to allocate before running it again over ByteWriter(span).
template <typename Write>
[[nodiscard]] std::size_t counted_size(Write&& write) {
  ByteWriter w = ByteWriter::counting();
  write(w);
  return w.size();
}

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Label the archive segment being parsed; it is embedded in every
  /// DecodeError this reader throws so operators can localize corruption.
  void set_segment(const char* segment) { segment_ = segment; }
  [[nodiscard]] const char* segment() const { return segment_; }

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> get_vector() {
    std::vector<T> v;
    get_vector_into(v);
    return v;
  }

  /// get_vector() into a caller-owned vector, reusing its capacity (decode
  /// workspaces, core/workspace.hh).
  template <typename T, typename Alloc>
  void get_vector_into(std::vector<T, Alloc>& v) {
    const auto n = static_cast<std::size_t>(checked_count(sizeof(T)));
    v.resize(n);
    if (n == 0) return;  // an empty vector's data() may be null: no memcpy
    std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
  }

  /// Zero-copy variant of get_vector<uint8_t>: a view into the underlying
  /// buffer, valid for its lifetime.  Used for nested archives (streaming
  /// slabs, bundle entries) so skipping or re-parsing never copies.
  [[nodiscard]] std::span<const std::uint8_t> get_bytes() {
    const std::uint64_t n = checked_count(1);
    const auto view = bytes_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return view;
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  /// Overflow-safe: pos_ <= bytes_.size() is an invariant, so the
  /// subtraction cannot wrap — unlike the naive `pos_ + n > size()`, which a
  /// crafted n close to UINT64_MAX would defeat.
  void require(std::size_t n) const { require_fixed(n, remaining(), segment_); }

  /// Read a 64-bit element count and validate it against the remaining bytes
  /// *before* any multiplication or allocation, so a spliced length field
  /// can neither wrap the bounds check nor trigger a huge allocation.
  [[nodiscard]] std::uint64_t checked_count(std::size_t elem_size) {
    const auto n = get<std::uint64_t>();
    require_length(n, elem_size, remaining(), segment_);
    return n;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  const char* segment_ = "archive";
};

}  // namespace szp
