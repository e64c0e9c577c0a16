// szp — CRC-32 (IEEE 802.3 polynomial) for archive integrity.
//
// Every Compressor archive carries a trailing checksum over its contents;
// decompression verifies it before parsing, so bit rot in storage or
// transfer is reported as a clean error instead of silently corrupt
// science data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace szp {

/// CRC-32 of `bytes` (reflected, init/xorout 0xffffffff — the zlib/PNG
/// convention).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Spans of at least this many bytes run as four interleaved streams over
/// their quarters, joined by the GF(2) shift over zero bytes (zlib's
/// crc32_combine); shorter spans and the tail run one slicing-by-8 stream.
/// Same values either way.
inline constexpr std::size_t kCrc32StreamBytes = 64 * 1024;

/// Incremental form: feed chunks with the previous return value (start with
/// crc32_init()); finish with crc32_final().
[[nodiscard]] constexpr std::uint32_t crc32_init() { return 0xffffffffu; }
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t state, std::span<const std::uint8_t> bytes);
[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ 0xffffffffu;
}

}  // namespace szp
