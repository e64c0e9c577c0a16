// Distortion metric tests (PSNR, max error, compression ratio).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/analysis/madogram.hh"
#include "core/eb.hh"
#include "core/metrics.hh"
#include "scoped_threads.hh"

namespace {

using szp::compare_fields;
using szp::compression_ratio;
using szp::ErrorBound;
using szp::ValueRange;
using szp::test::ScopedThreads;

TEST(Metrics, IdenticalFieldsHaveInfinitePsnr) {
  const std::vector<float> a{0.0f, 1.0f, 2.0f, 3.0f};
  const auto m = compare_fields(a, a);
  EXPECT_EQ(m.max_abs_error, 0.0);
  EXPECT_EQ(m.mse, 0.0);
  EXPECT_TRUE(std::isinf(m.psnr_db));
}

TEST(Metrics, KnownErrorValues) {
  const std::vector<float> a{0.0f, 10.0f};
  const std::vector<float> b{1.0f, 10.0f};
  const auto m = compare_fields(a, b);
  EXPECT_DOUBLE_EQ(m.max_abs_error, 1.0);
  EXPECT_DOUBLE_EQ(m.mse, 0.5);
  EXPECT_DOUBLE_EQ(m.value_range, 10.0);
  // PSNR = 20 log10(10) - 10 log10(0.5) = 20 + 3.0103
  EXPECT_NEAR(m.psnr_db, 23.0103, 1e-3);
}

TEST(Metrics, SizeMismatchThrows) {
  const std::vector<float> a{1.0f};
  const std::vector<float> b{1.0f, 2.0f};
  EXPECT_THROW((void)compare_fields(a, b), std::invalid_argument);
}

TEST(Metrics, CompressionRatio) {
  EXPECT_DOUBLE_EQ(compression_ratio(100, 25), 4.0);
  EXPECT_DOUBLE_EQ(compression_ratio(100, 0), 0.0);
}

TEST(ValueRangeT, MinMax) {
  const std::vector<float> v{3.0f, -1.0f, 7.0f};
  const auto r = ValueRange::of(v);
  EXPECT_EQ(r.min, -1.0);
  EXPECT_EQ(r.max, 7.0);
  EXPECT_EQ(r.span(), 8.0);
}

TEST(BlockReduce, WholeFieldReductionsAreBitIdenticalAtEveryThreadCount) {
  // Whole-field reductions run over fixed blocks and merge their partials
  // in block order, so even the floating-point MSE sum does not depend on
  // how many threads share the blocks.
  constexpr std::size_t n = std::size_t{1} << 22;
  std::vector<float> original(n);
  std::vector<float> decompressed(n);
  std::vector<std::uint16_t> codes(n);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    original[i] = 100.0f * std::sin(static_cast<float>(i) * 1e-4f);
    decompressed[i] = original[i] + static_cast<float>((state >> 40) % 2001) * 1e-6f - 1e-3f;
    codes[i] = static_cast<std::uint16_t>(512 + (state >> 62));
  }
  struct Result {
    szp::DistortionMetrics m;
    ValueRange range;
    double roughness = 0.0;
  };
  const auto run = [&](int threads) {
    const ScopedThreads scoped(threads);
    return Result{compare_fields(original, decompressed), ValueRange::of(decompressed),
                  szp::adjacent_roughness(codes)};
  };
  const Result one = run(1);
  for (const int threads : {2, 4}) {
    const Result r = run(threads);
    EXPECT_EQ(r.m.mse, one.m.mse) << threads << " threads";
    EXPECT_EQ(r.m.psnr_db, one.m.psnr_db) << threads << " threads";
    EXPECT_EQ(r.m.max_abs_error, one.m.max_abs_error) << threads << " threads";
    EXPECT_EQ(r.m.value_range, one.m.value_range) << threads << " threads";
    EXPECT_EQ(r.range.min, one.range.min) << threads << " threads";
    EXPECT_EQ(r.range.max, one.range.max) << threads << " threads";
    EXPECT_EQ(r.roughness, one.roughness) << threads << " threads";
  }
}

TEST(ErrorBoundT, AbsoluteIgnoresRange) {
  EXPECT_DOUBLE_EQ(ErrorBound::absolute(0.5).resolve(100.0), 0.5);
}

TEST(ErrorBoundT, RelativeScalesByRange) {
  EXPECT_DOUBLE_EQ(ErrorBound::relative(1e-2).resolve(50.0), 0.5);
  // Degenerate (constant) fields fall back to range 1.
  EXPECT_DOUBLE_EQ(ErrorBound::relative(1e-2).resolve(0.0), 1e-2);
}

TEST(ErrorBoundT, InvalidValuesThrow) {
  EXPECT_THROW((void)ErrorBound::absolute(0.0).resolve(1.0), std::invalid_argument);
  EXPECT_THROW((void)ErrorBound::relative(-1.0).resolve(1.0), std::invalid_argument);
}

}  // namespace
