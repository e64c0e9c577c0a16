// Multi-level interpolation predictor tests (SZ3-style, the paper's
// reference [19]): traversal symmetry, error-bound invariant, anchor
// accounting, and Compressor integration.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "core/compressor.hh"
#include "core/metrics.hh"
#include "core/predictor/interpolation.hh"

namespace {

using namespace szp;

std::vector<float> smooth_field(const Extents& ext, std::uint32_t seed, float noise = 0.01f) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(ext.count());
  float acc = 0.0f;
  for (auto& x : v) {
    acc = 0.995f * acc + 0.02f * dist(rng);
    x = acc + noise * dist(rng);
  }
  return v;
}

std::vector<float> roundtrip(std::span<const float> data, const Extents& ext, double eb) {
  auto res = interpolation_construct(data, ext, eb, QuantConfig{});
  std::vector<float> out(ext.count());
  interpolation_reconstruct<float>(std::span<const quant_t>(res.quant.data(), res.quant.size()),
                                   res.outliers, res.coefficients, res.level, ext, eb,
                                   QuantConfig{}, out);
  return out;
}

double max_error(std::span<const float> a, std::span<const float> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

class InterpSweep : public ::testing::TestWithParam<std::tuple<int, double, bool>> {};

TEST_P(InterpSweep, RoundTripHonorsErrorBound) {
  const auto [rank, eb, cubic] = GetParam();
  const Extents ext = rank == 1   ? Extents::d1(5000)
                      : rank == 2 ? Extents::d2(67, 83)
                                  : Extents::d3(17, 21, 29);
  const auto data = smooth_field(ext, static_cast<std::uint32_t>(rank * 13 + cubic));
  const auto out = roundtrip(data, ext, eb);
  EXPECT_LE(max_error(data, out), eb * 1.0001) << "rank=" << rank << " cubic=" << cubic;
}

// The predictor is cubic wherever four neighbours exist (the archive has no
// field for another choice), so the sweep keeps only its cubic half.
INSTANTIATE_TEST_SUITE_P(RankEbCubic, InterpSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1e-2, 1e-4),
                                            ::testing::Values(true)));

TEST(Interpolation, AnchorCountMatchesLattice) {
  // 100 elements at level 5 (stride 32): anchors at 0,32,64,96 -> 4.
  EXPECT_EQ(interpolation_anchor_count(Extents::d1(100), 5), 4u);
  // 2-D 65x65 at stride 32: 3x3.
  EXPECT_EQ(interpolation_anchor_count(Extents::d2(65, 65), 5), 9u);
  // Level clamps when the stride would exceed the axis.
  EXPECT_EQ(interpolation_anchor_count(Extents::d1(8), 5), 2u);  // stride 4
}

TEST(Interpolation, TinyFieldsDegradeToAnchors) {
  const Extents ext = Extents::d1(2);
  const std::vector<float> data{1.0f, -2.0f};
  const auto out = roundtrip(data, ext, 1e-6);
  EXPECT_EQ(out[0], 1.0f);  // anchors are stored raw
  EXPECT_EQ(out[1], -2.0f);
}

TEST(Interpolation, LinearRampIsPredictedExactly) {
  // On a linear ramp, cubic/linear interpolation is exact, so every
  // non-anchor code is zero.
  const Extents ext = Extents::d1(129);
  std::vector<float> data(129);
  for (std::size_t i = 0; i < 129; ++i) data[i] = 2.0f + 0.25f * static_cast<float>(i);
  auto res = interpolation_construct<float>(data, ext, 1e-3, QuantConfig{});
  const auto r = static_cast<quant_t>(QuantConfig{}.radius());
  for (std::size_t i = 0; i < 129; ++i) EXPECT_EQ(res.quant[i], r) << i;
  EXPECT_EQ(res.outliers.nnz(), 0u);
}

TEST(Interpolation, SpikesBecomeOutliersButStayBounded) {
  const Extents ext = Extents::d2(33, 33);
  std::vector<float> data(ext.count(), 0.0f);
  data[ext.index(0, 16, 17)] = 900.0f;
  const double eb = 1e-3;
  const auto out = roundtrip(data, ext, eb);
  EXPECT_LE(max_error(data, out), eb * 1.0001);
}

TEST(Interpolation, MismatchedAnchorsThrow) {
  const Extents ext = Extents::d1(100);
  std::vector<quant_t> q(100, 512);
  const sim::SparseVector<qdiff_t> o;
  std::vector<float> anchors(3);  // should be 4 at level 5
  std::vector<float> out(100);
  EXPECT_THROW((void)interpolation_reconstruct<float>(q, o, anchors, 5, ext, 1e-3, QuantConfig{},
                                                      out),
               std::invalid_argument);
}

TEST(Interpolation, StoredLevelClampsToTheField) {
  // The archive stores the level in one byte: any level too large for the
  // field, past the 64-bit shift width too, decodes at the largest one the
  // field holds (4 here, a stride of 16 on 20 elements).
  const Extents ext = Extents::d1(20);
  const auto data = smooth_field(ext, 5);
  const auto res = interpolation_construct<float>(data, ext, 1e-3, QuantConfig{});
  ASSERT_EQ(res.level, 4);
  const auto decode = [&](int level) {
    std::vector<float> out(ext.count());
    interpolation_reconstruct<float>(std::span<const quant_t>(res.quant.data(), res.quant.size()),
                                     res.outliers, res.coefficients, level, ext, 1e-3,
                                     QuantConfig{}, out);
    return out;
  };
  const auto want = decode(res.level);
  for (const int level : {5, 63, 64, 255}) EXPECT_EQ(decode(level), want) << level;
}

// ---- Compressor integration -------------------------------------------------

TEST(InterpolationCompressor, EndToEndAllRanks) {
  for (const int rank : {1, 2, 3}) {
    const Extents ext = rank == 1   ? Extents::d1(8000)
                        : rank == 2 ? Extents::d2(70, 90)
                                    : Extents::d3(18, 20, 22);
    const auto data = smooth_field(ext, static_cast<std::uint32_t>(40 + rank));
    CompressConfig cfg;
    cfg.eb = ErrorBound::relative(1e-3);
    cfg.predictor = PredictorKind::kInterpolation;
    const auto c = Compressor(cfg).compress(data, ext);
    const auto d = Compressor::decompress(c.bytes);
    EXPECT_LT(compare_fields(data, d.data).max_abs_error, c.stats.eb_abs) << rank;
    EXPECT_NE(d.pipeline.find("interpolation_reconstruct"), nullptr);
  }
}

TEST(InterpolationCompressor, DoublePath) {
  const Extents ext = Extents::d2(50, 60);
  std::vector<double> data(ext.count());
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  double acc = 0.0;
  for (auto& x : data) {
    acc = 0.99 * acc + 0.04 * dist(rng);
    x = acc;
  }
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-4);
  cfg.predictor = PredictorKind::kInterpolation;
  const auto c = Compressor(cfg).compress(data, ext);
  const auto d = Compressor::decompress(c.bytes);
  EXPECT_LT(compare_fields(data, d.data_f64).max_abs_error, c.stats.eb_abs);
}

TEST(InterpolationCompressor, CompetitiveWithLorenzoOnVerySmoothData) {
  // Interpolation's two-sided prediction should land within ~2x of Lorenzo
  // on smooth data (and can win at loose bounds on real SZ3 workloads).
  const Extents ext = Extents::d2(128, 128);
  std::vector<float> data(ext.count());
  for (std::size_t y = 0; y < 128; ++y)
    for (std::size_t x = 0; x < 128; ++x)
      data[y * 128 + x] =
          std::sin(0.05f * static_cast<float>(x)) * std::cos(0.04f * static_cast<float>(y));
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-3);
  cfg.workflow = Workflow::kHuffman;
  const auto lorenzo = Compressor(cfg).compress(data, ext);
  cfg.predictor = PredictorKind::kInterpolation;
  const auto interp = Compressor(cfg).compress(data, ext);
  EXPECT_GT(interp.stats.ratio, lorenzo.stats.ratio * 0.5);
}

}  // namespace
