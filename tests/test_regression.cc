// Linear-regression predictor tests (the paper's future-work predictor):
// fit correctness, error-bound invariant, and integration with the
// Compressor's archive format.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/compressor.hh"
#include "core/metrics.hh"
#include "core/predictor/regression.hh"

namespace {

using namespace szp;

std::vector<float> random_field(const Extents& ext, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(ext.count());
  float acc = 0.0f;
  for (auto& x : v) {
    acc = 0.98f * acc + 0.1f * dist(rng);
    x = acc;
  }
  return v;
}

std::vector<float> roundtrip(std::span<const float> data, const Extents& ext, double eb) {
  auto res = regression_construct(data, ext, eb, QuantConfig{});
  std::vector<float> out(ext.count());
  regression_reconstruct<float>(std::span<const quant_t>(res.quant.data(), res.quant.size()),
                                res.outliers, res.coefficients, ext, eb, QuantConfig{}, out);
  return out;
}

double max_error(std::span<const float> a, std::span<const float> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

class RegressionSweep : public ::testing::TestWithParam<std::tuple<int, double, bool>> {};

TEST_P(RegressionSweep, RoundTripHonorsErrorBound) {
  const auto [rank, eb, ragged] = GetParam();
  const Extents ext = rank == 1   ? Extents::d1(ragged ? 1000 : 1024)
                      : rank == 2 ? Extents::d2(ragged ? 37 : 32, ragged ? 53 : 48)
                                  : Extents::d3(ragged ? 11 : 16, ragged ? 19 : 16, ragged ? 21 : 24);
  const auto data = random_field(ext, static_cast<std::uint32_t>(rank * 31 + ragged));
  const auto out = roundtrip(data, ext, eb);
  EXPECT_LE(max_error(data, out), eb * 1.0001) << "rank=" << rank << " eb=" << eb;
}

INSTANTIATE_TEST_SUITE_P(RankEbRagged, RegressionSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1e-2, 1e-4),
                                            ::testing::Bool()));

TEST(Regression, ExactPlaneNeedsOnlyZeroCodes) {
  // A perfectly linear field within a single chunk: the plane fit is exact,
  // so every residual quantizes to zero.
  const Extents ext = Extents::d2(16, 16);
  std::vector<float> data(256);
  for (std::size_t y = 0; y < 16; ++y)
    for (std::size_t x = 0; x < 16; ++x)
      data[y * 16 + x] = 2.0f + 0.125f * static_cast<float>(x) - 0.0625f * static_cast<float>(y);

  auto res = regression_construct<float>(data, ext, 1e-3, QuantConfig{});
  const auto r = static_cast<quant_t>(QuantConfig{}.radius());
  for (std::size_t i = 0; i < 256; ++i) EXPECT_EQ(res.quant[i], r) << i;
  EXPECT_EQ(res.outliers.nnz(), 0u);
  // And the recovered coefficients match the construction.
  EXPECT_NEAR(res.coefficients[1], 0.125f, 1e-5);   // bx
  EXPECT_NEAR(res.coefficients[2], -0.0625f, 1e-5); // by
}

TEST(Regression, ChunkCountMatchesGrid) {
  EXPECT_EQ(regression_chunk_count(Extents::d1(1000)), 4u);     // ceil(1000/256)
  EXPECT_EQ(regression_chunk_count(Extents::d2(17, 33)), 6u);   // 2 x 3 of 16x16
  EXPECT_EQ(regression_chunk_count(Extents::d3(8, 8, 9)), 2u);  // 1 x 1 x 2 of 8^3
}

TEST(Regression, OutliersKeepBoundOnSpikyData) {
  const Extents ext = Extents::d1(512);
  std::vector<float> data(512, 0.0f);
  data[100] = 500.0f;
  data[300] = -500.0f;
  const double eb = 1e-3;
  const auto out = roundtrip(data, ext, eb);
  EXPECT_LE(max_error(data, out), eb * 1.0001);
}

TEST(Regression, MismatchedInputsThrow) {
  std::vector<float> data(100);
  EXPECT_THROW((void)regression_construct<float>(data, Extents::d1(101), 1e-3, QuantConfig{}),
               std::invalid_argument);
  std::vector<quant_t> q(100);
  const sim::SparseVector<qdiff_t> o;
  std::vector<float> coeffs(3);  // wrong count
  std::vector<float> out(100);
  EXPECT_THROW((void)regression_reconstruct<float>(q, o, coeffs, Extents::d1(100), 1e-3,
                                                   QuantConfig{}, out),
               std::invalid_argument);
}

// ---- Compressor integration ------------------------------------------------

TEST(RegressionCompressor, EndToEndRoundTrip) {
  const Extents ext = Extents::d3(12, 20, 24);
  const auto data = random_field(ext, 17);
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-3);
  cfg.predictor = PredictorKind::kRegression;
  const auto c = Compressor(cfg).compress(data, ext);
  const auto d = Compressor::decompress(c.bytes);
  EXPECT_LT(compare_fields(data, d.data).max_abs_error, c.stats.eb_abs);
  EXPECT_NE(d.pipeline.find("regression_reconstruct"), nullptr);
  EXPECT_NE(c.stats.pipeline.find("regression_construct"), nullptr);
}

TEST(RegressionCompressor, WorksWithAllWorkflows) {
  const Extents ext = Extents::d2(48, 64);
  const auto data = random_field(ext, 18);
  for (const Workflow wf : {Workflow::kHuffman, Workflow::kRle, Workflow::kRleVle}) {
    CompressConfig cfg;
    cfg.eb = ErrorBound::relative(1e-2);
    cfg.predictor = PredictorKind::kRegression;
    cfg.workflow = wf;
    const auto c = Compressor(cfg).compress(data, ext);
    const auto d = Compressor::decompress(c.bytes);
    EXPECT_LT(compare_fields(data, d.data).max_abs_error, c.stats.eb_abs)
        << static_cast<int>(wf);
  }
}

TEST(RegressionCompressor, DoublePath) {
  const Extents ext = Extents::d2(40, 40);
  std::vector<double> data(ext.count());
  std::mt19937 rng(19);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  double acc = 0.0;
  for (auto& x : data) {
    acc = 0.99 * acc + 0.05 * dist(rng);
    x = acc;
  }
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-5);
  cfg.predictor = PredictorKind::kRegression;
  const auto c = Compressor(cfg).compress(data, ext);
  const auto d = Compressor::decompress(c.bytes);
  EXPECT_LT(compare_fields(data, d.data_f64).max_abs_error, c.stats.eb_abs);
}

TEST(RegressionCompressor, LorenzoUsuallyWinsOnSmoothData) {
  // The regression predictor's residuals do not telescope, so on smooth
  // data the Lorenzo workflow compresses at least comparably — the reason
  // Lorenzo is the default (paper §II-B.3).
  const Extents ext = Extents::d2(90, 180);
  std::mt19937 rng(20);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> data(ext.count());
  for (std::size_t y = 0; y < 90; ++y) {
    float acc = 0.1f * static_cast<float>(y);
    for (std::size_t x = 0; x < 180; ++x) {
      acc += 0.001f * dist(rng);
      data[y * 180 + x] = acc;
    }
  }
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-3);
  cfg.workflow = Workflow::kHuffman;
  const auto lorenzo = Compressor(cfg).compress(data, ext);
  cfg.predictor = PredictorKind::kRegression;
  const auto regression = Compressor(cfg).compress(data, ext);
  EXPECT_GE(lorenzo.stats.ratio, regression.stats.ratio * 0.9);
}

}  // namespace
