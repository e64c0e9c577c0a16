// cuSZ baseline pipeline tests: it must be a correct compressor (the paper
// compares against it on equal quality terms), just a slower one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "baseline/cusz_ref.hh"
#include "core/compressor.hh"
#include "core/error.hh"
#include "core/metrics.hh"

namespace {

using namespace szp;
using baseline::CuszCompressor;
using baseline::CuszConfig;

std::vector<float> field(const Extents& ext, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(ext.count());
  float acc = 0.0f;
  for (auto& x : v) {
    acc = 0.99f * acc + 0.05f * dist(rng);
    x = acc;
  }
  return v;
}

class BaselineSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BaselineSweep, RoundTripHonorsErrorBound) {
  const auto [rank, eb] = GetParam();
  const Extents ext = rank == 1   ? Extents::d1(4000)
                      : rank == 2 ? Extents::d2(60, 70)
                                  : Extents::d3(12, 18, 20);
  const auto data = field(ext, static_cast<std::uint32_t>(rank));
  CuszConfig cfg;
  cfg.eb = ErrorBound::relative(eb);
  const auto c = CuszCompressor(cfg).compress(data, ext);
  const auto d = CuszCompressor::decompress(c.bytes);
  EXPECT_EQ(d.extents, ext);
  EXPECT_LT(compare_fields(data, d.data).max_abs_error, c.stats.eb_abs);
}

INSTANTIATE_TEST_SUITE_P(RankEb, BaselineSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1e-2, 1e-3, 1e-4)));

TEST(Baseline, SameQualityAsCuszPlus) {
  // Equal error bound => both reconstruct the same prequantized integers,
  // so the decompressed fields agree exactly (same data quality claim, §III).
  const Extents ext = Extents::d2(48, 64);
  const auto data = field(ext, 42);

  CompressConfig pcfg;
  pcfg.eb = ErrorBound::relative(1e-3);
  const auto plus = Compressor(pcfg).compress(data, ext);
  const auto plus_out = Compressor::decompress(plus.bytes);

  CuszConfig bcfg;
  bcfg.eb = ErrorBound::relative(1e-3);
  const auto base = CuszCompressor(bcfg).compress(data, ext);
  const auto base_out = CuszCompressor::decompress(base.bytes);

  EXPECT_EQ(plus_out.data, base_out.data);
}

TEST(Baseline, SimilarRatioToWorkflowHuffman) {
  // The value-space outlier encoding differs, but on well-behaved data the
  // two Huffman workflows should land within ~20% of each other.
  const Extents ext = Extents::d1(100000);
  const auto data = field(ext, 21);
  CompressConfig pcfg;
  pcfg.eb = ErrorBound::relative(1e-3);
  pcfg.workflow = Workflow::kHuffman;
  const auto plus = Compressor(pcfg).compress(data, ext);
  CuszConfig bcfg;
  bcfg.eb = ErrorBound::relative(1e-3);
  const auto base = CuszCompressor(bcfg).compress(data, ext);
  EXPECT_NEAR(plus.stats.ratio / base.stats.ratio, 1.0, 0.2);
}

TEST(Baseline, PipelineStagesPresent) {
  const Extents ext = Extents::d1(2000);
  const auto data = field(ext, 3);
  const auto c = CuszCompressor(CuszConfig{}).compress(data, ext);
  for (const char* stage :
       {"lorenzo_construct", "gather_outlier", "histogram", "huffman_book", "huffman_encode"}) {
    EXPECT_NE(c.stats.pipeline.find(stage), nullptr) << stage;
  }
  const auto d = CuszCompressor::decompress(c.bytes);
  EXPECT_NE(d.pipeline.find("lorenzo_reconstruct"), nullptr);
  // The baseline reconstruction is the coarse kernel: its cost is
  // chunk-parallel only.
  EXPECT_LT(d.pipeline.find("lorenzo_reconstruct")->cost.parallel_items, ext.count());
}

TEST(Baseline, RejectsBadArchive) {
  std::vector<std::uint8_t> junk{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_THROW((void)CuszCompressor::decompress(junk), std::runtime_error);
}

// Decode scatters each outlier into a dense array, one block per index, so
// two equal indices would be two blocks adding into one word.  The outlier
// section must be strictly increasing, as compression writes it.

/// Byte offset of the first outlier index in a CSZ0 archive: magic, rank,
/// three extents, bound, capacity, then the index count.
constexpr std::size_t kFirstOutlierOffset = 4 + 1 + 3 * 8 + 8 + 4 + 8;

/// A CSZ0 archive of a noise field at quantizer capacity 16 (most elements
/// are outliers) with its first two outlier indices (a, b) replaced by
/// pick(a, b).
template <typename Pick>
std::vector<std::uint8_t> with_outlier_indices(Pick pick) {
  const Extents ext = Extents::d2(48, 40);
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> data(ext.count());
  for (auto& x : data) x = dist(rng);
  CuszConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  cfg.quant.capacity = 16;
  auto compressed = CuszCompressor(cfg).compress(data, ext);
  EXPECT_GE(compressed.stats.outlier_count, 2u);
  auto archive = std::move(compressed.bytes);
  std::uint64_t a = 0, b = 0;
  std::memcpy(&a, archive.data() + kFirstOutlierOffset, 8);
  std::memcpy(&b, archive.data() + kFirstOutlierOffset + 8, 8);
  EXPECT_LT(a, b);
  const auto [first, second] = pick(a, b);
  std::memcpy(archive.data() + kFirstOutlierOffset, &first, 8);
  std::memcpy(archive.data() + kFirstOutlierOffset + 8, &second, 8);
  return archive;
}

void expect_outliers_rejected(std::span<const std::uint8_t> archive) {
  try {
    (void)CuszCompressor::decompress(archive);
    FAIL() << "decode accepted an out-of-order outlier section";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kCorruptStream) << e.what();
    EXPECT_EQ(e.segment(), "outliers") << e.what();
  }
}

TEST(Baseline, DuplicatedOutlierIndexIsRejected) {
  expect_outliers_rejected(with_outlier_indices(
      [](std::uint64_t a, std::uint64_t) { return std::make_pair(a, a); }));
}

TEST(Baseline, SwappedOutlierIndicesAreRejected) {
  expect_outliers_rejected(with_outlier_indices(
      [](std::uint64_t a, std::uint64_t b) { return std::make_pair(b, a); }));
}

}  // namespace
