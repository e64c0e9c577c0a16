// LZ77+Huffman codec tests (the gzip/Zstd stand-in for qg/qhg schemes).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "lossless/lzh.hh"

namespace {

using szp::lossless::lzh_compress;
using szp::lossless::lzh_decompress;
using szp::lossless::lzh_ratio;
using szp::lossless::Lz77Config;

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Lzh, RoundTripText) {
  const auto input = bytes_of(
      "the quick brown fox jumps over the lazy dog; "
      "the quick brown fox jumps over the lazy dog again and again");
  const auto c = lzh_compress(input);
  EXPECT_EQ(lzh_decompress(c), input);
}

TEST(Lzh, RoundTripEmpty) {
  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(lzh_decompress(lzh_compress(empty)), empty);
}

TEST(Lzh, RoundTripSingleByteAndTiny) {
  for (const auto& s : {std::string{"x"}, std::string{"ab"}, std::string{"aaa"}}) {
    const auto input = bytes_of(s);
    EXPECT_EQ(lzh_decompress(lzh_compress(input)), input) << s;
  }
}

TEST(Lzh, RoundTripRandomBinary) {
  std::mt19937 rng(5);
  std::vector<std::uint8_t> input(100000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng());
  EXPECT_EQ(lzh_decompress(lzh_compress(input)), input);
}

TEST(Lzh, RoundTripOverlappingMatches) {
  // "aaaa..." forces self-overlapping copies (dist 1, long lengths).
  std::vector<std::uint8_t> input(100000, 'a');
  const auto c = lzh_compress(input);
  EXPECT_LT(c.size(), input.size() / 50);
  EXPECT_EQ(lzh_decompress(c), input);
}

TEST(Lzh, RoundTripPeriodicPattern) {
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 20000; ++i) input.push_back(static_cast<std::uint8_t>("abcdefg"[i % 7]));
  const auto c = lzh_compress(input);
  EXPECT_LT(c.size(), input.size() / 10);
  EXPECT_EQ(lzh_decompress(c), input);
}

TEST(Lzh, MatchesBeyondWindowAreNotUsed) {
  // Two identical blocks separated by > window of incompressible noise:
  // must still round-trip (the second block simply compresses worse).
  std::mt19937 rng(6);
  std::vector<std::uint8_t> block(1000, 'z');
  std::vector<std::uint8_t> input = block;
  for (int i = 0; i < 40000; ++i) input.push_back(static_cast<std::uint8_t>(rng()));
  input.insert(input.end(), block.begin(), block.end());
  EXPECT_EQ(lzh_decompress(lzh_compress(input)), input);
}

TEST(Lzh, RepetitiveDataCompressesRandomDoesNot) {
  std::vector<std::uint8_t> rep;
  for (int i = 0; i < 50000; ++i) rep.push_back(static_cast<std::uint8_t>(i % 4));
  EXPECT_GT(lzh_ratio(rep), 10.0);

  std::mt19937 rng(7);
  std::vector<std::uint8_t> rnd(50000);
  for (auto& b : rnd) b = static_cast<std::uint8_t>(rng());
  EXPECT_LT(lzh_ratio(rnd), 1.1);
}

TEST(Lzh, ConfigKnobsStillRoundTrip) {
  std::mt19937 rng(8);
  std::vector<std::uint8_t> input(30000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng() % 16);
  for (const std::size_t chain : {1u, 8u, 1024u}) {
    Lz77Config cfg;
    cfg.max_chain = chain;
    EXPECT_EQ(lzh_decompress(lzh_compress(input, cfg)), input) << "chain=" << chain;
  }
}

TEST(Lzh, CorruptInputThrows) {
  const auto c = lzh_compress(bytes_of("hello hello hello hello"));
  std::vector<std::uint8_t> bad = c;
  bad[0] ^= 0xff;  // magic
  EXPECT_THROW((void)lzh_decompress(bad), std::runtime_error);

  std::vector<std::uint8_t> truncated(c.begin(), c.begin() + 8);
  EXPECT_THROW((void)lzh_decompress(truncated), std::runtime_error);
}

}  // namespace
