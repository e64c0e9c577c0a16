// Distortion metric tests (PSNR, max error, compression ratio).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
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

TEST(Metrics, NanInEitherFieldIsNotAPerfectMatch) {
  // A NaN in either field makes every error metric NaN, so neither a
  // max-error check nor a PSNR target passes it.  One NaN in block 0 and
  // one in a later 64 Ki block, so the NaN must survive the block merge on
  // either side of it.
  constexpr std::size_t n = 3 * 65536 + 100;
  std::vector<float> original(n);
  std::vector<float> decoded(n);
  for (std::size_t i = 0; i < n; ++i) {
    original[i] = std::sin(static_cast<float>(i) * 1e-3f);
    decoded[i] = original[i] + 1e-4f;
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const bool in_original : {false, true}) {
    for (const std::size_t at : {std::size_t{7}, std::size_t{2 * 65536 + 5}}) {
      for (const bool exact_elsewhere : {false, true}) {
        std::vector<float> a = original;
        std::vector<float> b = exact_elsewhere ? original : decoded;
        (in_original ? a : b)[at] = nan;
        for (const int threads : {1, 4}) {
          SCOPED_TRACE(::testing::Message() << (in_original ? "original" : "decoded") << "[" << at
                                            << "], exact elsewhere " << exact_elsewhere << ", "
                                            << threads << " threads");
          const ScopedThreads scoped(threads);
          const auto m = compare_fields(a, b);
          EXPECT_TRUE(std::isnan(m.max_abs_error)) << m.max_abs_error;
          EXPECT_TRUE(std::isnan(m.mse)) << m.mse;
          EXPECT_TRUE(std::isnan(m.psnr_db)) << m.psnr_db;
          EXPECT_TRUE(std::isnan(m.nrmse)) << m.nrmse;
        }
      }
    }
  }
}

TEST(Metrics, ConstantOriginalWithAnErrorGetsTheFormula) {
  // Only MSE 0 reads as infinite PSNR; a zero range with a nonzero error
  // gives PSNR -inf and NRMSE +inf.
  const std::vector<float> a(100, 2.0f);
  std::vector<float> b = a;
  b[42] = 2.5f;
  const auto m = compare_fields(a, b);
  EXPECT_EQ(m.value_range, 0.0);
  EXPECT_DOUBLE_EQ(m.max_abs_error, 0.5);
  EXPECT_EQ(m.psnr_db, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(m.nrmse, std::numeric_limits<double>::infinity());
  // Two equal constant fields are still a perfect match.
  const auto same = compare_fields(a, a);
  EXPECT_EQ(same.psnr_db, std::numeric_limits<double>::infinity());
  EXPECT_EQ(same.nrmse, 0.0);
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

/// The range one scalar min/max chain over the whole field gives.
template <typename T>
ValueRange scalar_range(const std::vector<T>& v) {
  ValueRange r{static_cast<double>(v[0]), static_cast<double>(v[0]), true};
  for (const T x : v) {
    r.min = std::min(r.min, static_cast<double>(x));
    r.max = std::max(r.max, static_cast<double>(x));
    r.finite = r.finite && std::isfinite(x);
  }
  return r;
}

/// ValueRange::of(v) against scalar_range(v) at 1 and 4 threads.  min and
/// max compare exactly unless the field holds a NaN (only `finite` is
/// pinned then), or its extremes are zeros, whose sign may differ: there
/// span() and max_abs() compare.
enum class Pin { kExact, kFiniteOnly, kZeroExtremes };

template <typename T>
void expect_scalar_range(const std::vector<T>& v, Pin pin) {
  const ValueRange ref = scalar_range(v);
  for (const int threads : {1, 4}) {
    const ScopedThreads scoped(threads);
    const ValueRange r = ValueRange::of(v);
    EXPECT_EQ(r.finite, ref.finite) << threads << " threads";
    if (pin == Pin::kFiniteOnly) continue;
    EXPECT_EQ(r.min, ref.min) << threads << " threads";
    EXPECT_EQ(r.max, ref.max) << threads << " threads";
    if (pin == Pin::kZeroExtremes) {
      EXPECT_EQ(r.span(), ref.span()) << threads << " threads";
      EXPECT_EQ(r.max_abs(), ref.max_abs()) << threads << " threads";
    }
  }
}

/// Where the lane split of n elements changes hands: lanes 0 and 15 of the
/// first and last 16-element group of every 64 Ki block, and the first and
/// last element of each block's scalar tail.
std::vector<std::size_t> lane_edges(std::size_t n) {
  constexpr std::size_t kBlock = 65536;
  constexpr std::size_t kLanes = 16;
  std::vector<std::size_t> at;
  for (std::size_t begin = 0; begin < n; begin += kBlock) {
    const std::size_t end = std::min(n, begin + kBlock);
    const std::size_t groups_end = begin + (end - begin) / kLanes * kLanes;
    if (groups_end > begin) {
      at.insert(at.end(), {begin, begin + kLanes - 1, groups_end - kLanes, groups_end - 1});
    }
    if (groups_end < end) at.insert(at.end(), {groups_end, end - 1});
  }
  std::sort(at.begin(), at.end());
  at.erase(std::unique(at.begin(), at.end()), at.end());
  return at;
}

template <typename T>
void expect_lane_split_matches_scalar_scan() {
  constexpr std::size_t kBlock = 65536;
  std::mt19937_64 rng(0x5eed);
  std::uniform_real_distribution<double> dist(-100.0, 100.0);
  for (const std::size_t n : {std::size_t{1}, std::size_t{15}, std::size_t{16}, std::size_t{17},
                              kBlock - 1, kBlock, kBlock + 1, 3 * kBlock + 17}) {
    SCOPED_TRACE(::testing::Message() << "n " << n);
    std::vector<T> field(n);
    for (T& x : field) x = static_cast<T>(dist(rng));

    // Random finite fields with their min and max at each lane edge: lane 0,
    // lane 15, the scalar tail and the last block.
    const std::vector<std::size_t> edges = lane_edges(n);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const std::size_t lo_at = edges[e];
      const std::size_t hi_at = edges[(e + 1) % edges.size()];
      SCOPED_TRACE(::testing::Message() << "min at " << lo_at << ", max at " << hi_at);
      std::vector<T> v = field;
      v[lo_at] = T{-1000};
      if (hi_at != lo_at) v[hi_at] = T{1000};
      expect_scalar_range(v, Pin::kExact);
    }

    // One NaN, +Inf or -Inf at each position 0-16 of the first and last
    // block, at the first element of the second block and at the last one.
    std::vector<std::size_t> bad_at;
    const std::size_t last_block = (n - 1) / kBlock * kBlock;
    for (const std::size_t begin : {std::size_t{0}, last_block}) {
      for (std::size_t k = 0; k <= 16 && begin + k < n; ++k) bad_at.push_back(begin + k);
    }
    if (kBlock < n) bad_at.push_back(kBlock);
    bad_at.push_back(n - 1);
    std::sort(bad_at.begin(), bad_at.end());
    bad_at.erase(std::unique(bad_at.begin(), bad_at.end()), bad_at.end());
    for (const T bad : {std::numeric_limits<T>::quiet_NaN(), std::numeric_limits<T>::infinity(),
                        -std::numeric_limits<T>::infinity()}) {
      for (const std::size_t at : bad_at) {
        SCOPED_TRACE(::testing::Message() << bad << " at " << at);
        std::vector<T> v = field;
        v[at] = bad;
        expect_scalar_range(v, std::isnan(bad) ? Pin::kFiniteOnly : Pin::kExact);
      }
    }

    // An all-equal field, and fields whose extremes are zeros of both signs.
    expect_scalar_range(std::vector<T>(n, T{3.25}), Pin::kExact);
    std::vector<T> zeros(n), nonneg(n), nonpos(n);
    for (std::size_t i = 0; i < n; ++i) {
      const T zero = (i * 7919) % 3 == 0 ? T{-0.0} : T{0.0};
      const bool at_zero = i % 5 == 0;
      zeros[i] = zero;
      nonneg[i] = at_zero ? zero : std::fabs(field[i]);
      nonpos[i] = at_zero ? zero : -std::fabs(field[i]);
    }
    for (const auto* v : {&zeros, &nonneg, &nonpos}) expect_scalar_range(*v, Pin::kZeroExtremes);
  }
}

TEST(ValueRangeT, MatchesAScalarScanAtEveryLaneAndBlockEdge) {
  {
    SCOPED_TRACE("float");
    expect_lane_split_matches_scalar_scan<float>();
  }
  {
    SCOPED_TRACE("double");
    expect_lane_split_matches_scalar_scan<double>();
  }
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
