// CRC-32 and archive-integrity tests.
#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <span>
#include <vector>

#include "core/checksum.hh"
#include "core/compressor.hh"

namespace {

using namespace szp;

TEST(Crc32, KnownVectors) {
  // The canonical check value of CRC-32/ISO-HDLC.
  const std::string s = "123456789";
  const auto bytes = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  EXPECT_EQ(crc32(bytes), 0xcbf43926u);

  EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::mt19937 rng(1);
  std::vector<std::uint8_t> data(10000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());

  std::uint32_t state = crc32_init();
  state = crc32_update(state, std::span<const std::uint8_t>(data.data(), 3000));
  state = crc32_update(state, std::span<const std::uint8_t>(data.data() + 3000, 7000));
  EXPECT_EQ(crc32_final(state), crc32(data));
}

/// CRC-32 one bit at a time (reflected polynomial 0xedb88320), with no
/// table: the reference the slicing-by-8 implementation must match.
std::uint32_t reference_crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xffffffffu;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  std::mt19937 rng(2);
  std::vector<std::uint8_t> data(64 + 8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const auto bytes = std::span<const std::uint8_t>(data).subspan(offset, len);
      EXPECT_EQ(crc32(bytes), reference_crc32(bytes)) << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32, StreamedLengthsMatchBytewiseReference) {
  // Lengths around the four-stream threshold and one past four of it, whose
  // quarters are not whole words and leave a tail, at every alignment.
  std::mt19937 rng(4);
  std::vector<std::uint8_t> data(4 * kCrc32StreamBytes + 3 + 8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  std::vector<std::size_t> lengths;
  for (std::size_t len = kCrc32StreamBytes - 1; len <= kCrc32StreamBytes + 8; ++len) {
    lengths.push_back(len);
  }
  lengths.push_back(4 * kCrc32StreamBytes + 3);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t len : lengths) {
      const auto bytes = std::span<const std::uint8_t>(data).subspan(offset, len);
      EXPECT_EQ(crc32(bytes), reference_crc32(bytes)) << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32, SplitAtQuarterBoundariesMatchesReference) {
  // Either side of a split may run as four streams, the second from a
  // nonzero state; split at each quarter boundary of the whole and one
  // byte either side of it.
  std::mt19937 rng(5);
  std::vector<std::uint8_t> data(4 * kCrc32StreamBytes + 3);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const auto bytes = std::span<const std::uint8_t>(data);
  const std::uint32_t whole = reference_crc32(bytes);
  const std::size_t quarter = bytes.size() / 4 / 8 * 8;
  for (std::size_t k = 1; k <= 4; ++k) {
    for (const std::size_t split : {k * quarter - 1, k * quarter, k * quarter + 1}) {
      const std::uint32_t state = crc32_update(crc32_init(), bytes.first(split));
      EXPECT_EQ(crc32_final(crc32_update(state, bytes.subspan(split))), whole) << split;
    }
  }
}

TEST(Crc32, SplitAtEveryPointMatchesOneShot) {
  std::mt19937 rng(3);
  std::vector<std::uint8_t> data(100);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const auto bytes = std::span<const std::uint8_t>(data);
  const std::uint32_t whole = crc32(bytes);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t state = crc32_update(crc32_init(), bytes.first(split));
    EXPECT_EQ(crc32_final(crc32_update(state, bytes.subspan(split))), whole) << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> data(256);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  const auto reference = crc32(data);
  for (const std::size_t pos : {0u, 100u, 255u}) {
    auto copy = data;
    copy[pos] ^= 0x10;
    EXPECT_NE(crc32(copy), reference) << pos;
  }
}

TEST(ArchiveIntegrity, BitFlipAnywhereIsDetected) {
  std::vector<float> data(2000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(0.01f * static_cast<float>(i));
  }
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  const auto c = Compressor(cfg).compress(data, Extents::d1(2000));

  // Flip one bit at several positions across the archive (header, payload,
  // trailer) — every flip must surface as a checksum error, never as
  // silently wrong data.
  for (const double frac : {0.01, 0.3, 0.6, 0.95}) {
    auto corrupt = c.bytes;
    corrupt[static_cast<std::size_t>(frac * static_cast<double>(corrupt.size() - 5))] ^= 0x04;
    EXPECT_THROW((void)Compressor::decompress(corrupt), std::runtime_error) << frac;
  }

  // Flipping the stored CRC itself is also a mismatch.
  auto corrupt = c.bytes;
  corrupt.back() ^= 0xff;
  EXPECT_THROW((void)Compressor::decompress(corrupt), std::runtime_error);

  // And the pristine archive still works.
  const auto d = Compressor::decompress(c.bytes);
  EXPECT_EQ(d.data.size(), data.size());
}

TEST(ArchiveIntegrity, InspectAlsoVerifies) {
  std::vector<float> data(500, 1.5f);
  data[100] = 2.0f;
  const auto c = Compressor(CompressConfig{}).compress(data, Extents::d1(500));
  EXPECT_NO_THROW((void)Compressor::inspect(c.bytes));
  auto corrupt = c.bytes;
  corrupt[10] ^= 0x01;
  EXPECT_THROW((void)Compressor::inspect(corrupt), std::runtime_error);
}

}  // namespace
