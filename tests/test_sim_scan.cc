// Unit tests for the substrate's scan primitives (block scan, device-wide
// scans) — the building blocks of partial-sum reconstruction and Huffman
// deflating.
#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <vector>

#include "sim/block_scan.hh"
#include "sim/device_scan.hh"

namespace {

using szp::sim::block_inclusive_scan;
using szp::sim::device_exclusive_scan;
using szp::sim::device_inclusive_scan;

std::vector<int> random_ints(std::size_t n, std::uint32_t seed, int lo = -50, int hi = 50) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(lo, hi);
  std::vector<int> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(BlockScan, MatchesPartialSumOnSmallInput) {
  std::vector<int> v{3, -1, 4, 1, -5, 9, 2, -6};
  std::vector<int> expected(v.size());
  std::partial_sum(v.begin(), v.end(), expected.begin());
  block_inclusive_scan(std::span<int>(v), 3);
  EXPECT_EQ(v, expected);
}

TEST(BlockScan, EmptyAndSingle) {
  std::vector<int> empty;
  block_inclusive_scan(std::span<int>(empty), 8);
  EXPECT_TRUE(empty.empty());

  std::vector<int> one{42};
  block_inclusive_scan(std::span<int>(one), 8);
  EXPECT_EQ(one[0], 42);
}

TEST(BlockScan, SequentialityZeroIsTreatedAsOne) {
  auto v = random_ints(100, 7);
  auto expected = v;
  std::partial_sum(expected.begin(), expected.end(), expected.begin());
  block_inclusive_scan(std::span<int>(v), 0);
  EXPECT_EQ(v, expected);
}

// Sweep the sequentiality knob (the paper tunes it to 8): the result must
// be invariant.
class BlockScanSeq : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockScanSeq, InvariantUnderSequentiality) {
  for (const std::size_t n : {1u, 2u, 7u, 255u, 256u, 257u, 1000u}) {
    auto v = random_ints(n, static_cast<std::uint32_t>(n));
    auto expected = v;
    std::partial_sum(expected.begin(), expected.end(), expected.begin());
    block_inclusive_scan(std::span<int>(v), GetParam());
    EXPECT_EQ(v, expected) << "n=" << n << " seq=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sequentialities, BlockScanSeq,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 1000));

class DeviceScanSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeviceScanSize, ExclusiveMatchesReference) {
  const std::size_t n = GetParam();
  std::vector<std::uint64_t> in(n);
  std::mt19937 rng(static_cast<std::uint32_t>(n));
  for (auto& x : in) x = rng() % 1000;

  std::vector<std::uint64_t> out(n);
  const auto total = device_exclusive_scan(std::span<const std::uint64_t>(in),
                                           std::span<std::uint64_t>(out), 64);

  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], acc) << "i=" << i;
    acc += in[i];
  }
  EXPECT_EQ(total, acc);
}

TEST_P(DeviceScanSize, InclusiveMatchesReference) {
  const std::size_t n = GetParam();
  std::vector<std::uint64_t> in(n);
  std::mt19937 rng(static_cast<std::uint32_t>(n) + 1);
  for (auto& x : in) x = rng() % 1000;

  std::vector<std::uint64_t> out(n);
  device_inclusive_scan(std::span<const std::uint64_t>(in), std::span<std::uint64_t>(out), 64);

  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += in[i];
    EXPECT_EQ(out[i], acc) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeviceScanSize,
                         ::testing::Values(1, 2, 63, 64, 65, 1000, 4096, 100000));

TEST(DeviceScan, EmptyInput) {
  std::vector<std::uint64_t> in, out;
  EXPECT_EQ(device_exclusive_scan(std::span<const std::uint64_t>(in),
                                  std::span<std::uint64_t>(out)),
            0u);
}

}  // namespace
