// Lorenzo predictor tests: dual-quantization correctness, the partial-sum
// reconstruction theorem (paper §IV-B), the error-bound invariant, outlier
// schemes, and chunk-boundary handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/predictor/lorenzo.hh"
#include "sim/check.hh"
#include "sim/sparse.hh"

namespace {

using namespace szp;

std::vector<float> random_field(const Extents& ext, std::uint32_t seed, float amplitude = 1.0f) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-amplitude, amplitude);
  std::vector<float> v(ext.count());
  // Smooth-ish random walk along x so most residuals are small but not all.
  float acc = 0.0f;
  for (auto& x : v) {
    acc = 0.98f * acc + 0.1f * dist(rng);
    x = acc + 0.02f * dist(rng);
  }
  return v;
}

/// The outlier section as a dense array: zero except at its indices.
std::vector<qdiff_t> dense_outliers(const PredictorProduct& res, std::size_t n) {
  std::vector<qdiff_t> dense(n, 0);
  for (std::size_t k = 0; k < res.outliers.nnz(); ++k) {
    dense[res.outliers.indices[k]] = res.outliers.values[k];
  }
  return dense;
}

/// Full fine-grained round trip through the cuSZ+ residual scheme.
template <typename T>
std::vector<T> roundtrip_fine(std::span<const T> data, const Extents& ext, double eb,
                              const QuantConfig& qcfg, const ReconstructConfig& rcfg) {
  const auto res = lorenzo_construct(data, ext, eb, qcfg, OutlierScheme::kResidual);
  std::vector<T> out(ext.count());
  lorenzo_reconstruct<T>(std::span<const quant_t>(res.quant.data(), res.quant.size()),
                         res.outliers, ext, eb, qcfg.radius(), out, rcfg);
  return out;
}

std::vector<float> roundtrip_fine(const std::vector<float>& data, const Extents& ext, double eb,
                                  const QuantConfig& qcfg, const ReconstructConfig& rcfg) {
  return roundtrip_fine<float>(std::span<const float>(data), ext, eb, qcfg, rcfg);
}

/// Round trip through the cuSZ value scheme + coarse reconstruction.
std::vector<float> roundtrip_coarse(std::span<const float> data, const Extents& ext, double eb,
                                    const QuantConfig& qcfg) {
  auto res = lorenzo_construct(data, ext, eb, qcfg, OutlierScheme::kValue,
                               ConstructVariant::kBaseline);
  const auto dense = dense_outliers(res, ext.count());
  std::vector<float> out(ext.count());
  lorenzo_reconstruct_coarse(std::span<const quant_t>(res.quant.data(), res.quant.size()),
                             std::span<const qdiff_t>(dense), ext, eb, qcfg, out);
  return out;
}

/// Split fused residuals into what an archive carries: quant-codes
/// q' + radius where |q'| < radius, the radius and a sparse outlier
/// elsewhere.
void split_residuals(const std::vector<qdiff_t>& qprime, std::int32_t radius,
                     std::vector<quant_t>& quant, sim::SparseVector<qdiff_t>& outliers) {
  quant.assign(qprime.size(), 0);
  outliers = {};
  for (std::size_t i = 0; i < qprime.size(); ++i) {
    const bool in = qprime[i] > -radius && qprime[i] < radius;
    quant[i] = static_cast<quant_t>(in ? qprime[i] + radius : radius);
    if (!in) {
      outliers.indices.push_back(i);
      outliers.values.push_back(qprime[i]);
    }
  }
}

double max_error(std::span<const float> a, std::span<const float> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

Extents extents_for(int rank, bool ragged) {
  // Ragged sizes are deliberately not multiples of the chunk shapes.
  switch (rank) {
    case 1: return Extents::d1(ragged ? 1000 : 1024);
    case 2: return Extents::d2(ragged ? 37 : 32, ragged ? 53 : 48);
    default: return Extents::d3(ragged ? 11 : 16, ragged ? 19 : 16, ragged ? 21 : 24);
  }
}

// ---- Error-bound property sweep: rank x eb x raggedness ------------------

class LorenzoRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, double, bool>> {};

// Raw kernels guarantee error <= eb (+ float32 output rounding); the strict
// `< eb` contract is enforced one level up by the Compressor's margin.
constexpr double kFloatRounding = 1e-6;

TEST_P(LorenzoRoundTrip, FineGrainedHonorsErrorBound) {
  const auto [rank, eb, ragged] = GetParam();
  const Extents ext = extents_for(rank, ragged);
  const auto data = random_field(ext, static_cast<std::uint32_t>(rank * 100 + ragged));
  const auto out = roundtrip_fine(data, ext, eb, QuantConfig{}, ReconstructConfig{});
  EXPECT_LE(max_error(data, out), eb + kFloatRounding) << "rank=" << rank << " eb=" << eb;
}

TEST_P(LorenzoRoundTrip, CoarseBaselineHonorsErrorBound) {
  const auto [rank, eb, ragged] = GetParam();
  const Extents ext = extents_for(rank, ragged);
  const auto data = random_field(ext, static_cast<std::uint32_t>(rank * 100 + 50 + ragged));
  const auto out = roundtrip_coarse(data, ext, eb, QuantConfig{});
  EXPECT_LE(max_error(data, out), eb + kFloatRounding) << "rank=" << rank << " eb=" << eb;
}

TEST_P(LorenzoRoundTrip, FineAndCoarseAgreeExactly) {
  // Both schemes reconstruct the same prequantized integers, so their float
  // outputs must agree bit-for-bit.
  const auto [rank, eb, ragged] = GetParam();
  const Extents ext = extents_for(rank, ragged);
  const auto data = random_field(ext, static_cast<std::uint32_t>(rank * 1000 + ragged));
  const auto fine = roundtrip_fine(data, ext, eb, QuantConfig{}, ReconstructConfig{});
  const auto coarse = roundtrip_coarse(data, ext, eb, QuantConfig{});
  EXPECT_EQ(fine, coarse);
}

INSTANTIATE_TEST_SUITE_P(
    RankEbRagged, LorenzoRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(1e-2, 1e-3, 1e-4),
                       ::testing::Bool()));

// ---- Reconstruction variants (Table II ablation) -------------------------

// The third parameter seeds the field, so every (rank, variant) pair runs on
// four fields of its own.
class ReconstructVariants
    : public ::testing::TestWithParam<std::tuple<int, ReconstructVariant, std::size_t>> {};

TEST_P(ReconstructVariants, AllVariantsProduceIdenticalOutput) {
  const auto [rank, variant, field] = GetParam();
  const Extents ext = extents_for(rank, true);
  const auto data = random_field(ext, static_cast<std::uint32_t>(98 + field));
  const double eb = 1e-3;

  const auto reference = roundtrip_fine(data, ext, eb, QuantConfig{}, ReconstructConfig{});
  const auto out = roundtrip_fine(data, ext, eb, QuantConfig{}, ReconstructConfig{variant});
  EXPECT_EQ(out, reference);
}

INSTANTIATE_TEST_SUITE_P(
    VariantSeq, ReconstructVariants,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(ReconstructVariant::kNaivePartialSum,
                                         ReconstructVariant::kOptimizedPartialSum),
                       ::testing::Values(std::size_t{1}, std::size_t{4}, std::size_t{8},
                                         std::size_t{16})));

// ---- Hand-verified partial-sum theorem -----------------------------------

TEST(Lorenzo, PartialSumEqualsSerialReconstruction2D) {
  // 4x4 single chunk; quant residuals chosen by hand.  The paper's theorem:
  // d[y,x] = sum_{j<=y} sum_{i<=x} q'[j,i].
  const Extents ext = Extents::d2(4, 4);
  const std::vector<qdiff_t> q0{1, 0, 2, -1, 0, 3, 0, 0, -2, 0, 1, 0, 0, 0, 0, 4};
  // Radius 2 sends the residuals 2, -2, 3 and 4 to the outlier stream.
  std::vector<quant_t> quant;
  sim::SparseVector<qdiff_t> outliers;
  split_residuals(q0, 2, quant, outliers);
  ASSERT_EQ(outliers.nnz(), 4u);
  std::vector<float> out(16);
  lorenzo_reconstruct<float>(quant, outliers, ext, 0.5, 2, out);  // 2eb = 1 => out == sums

  for (std::size_t y = 0; y < 4; ++y) {
    for (std::size_t x = 0; x < 4; ++x) {
      qdiff_t sum = 0;
      for (std::size_t j = 0; j <= y; ++j)
        for (std::size_t i = 0; i <= x; ++i) sum += q0[j * 4 + i];
      EXPECT_EQ(out[y * 4 + x], static_cast<float>(sum)) << "y=" << y << " x=" << x;
    }
  }
}

TEST(Lorenzo, ConstantFieldNeedsOneCodePerChunkRow) {
  // A constant field prequantizes to a constant integer; within each chunk
  // only position (0,0,..) carries a nonzero residual (the boundary is 0).
  const Extents ext = Extents::d1(512);
  std::vector<float> data(512, 10.0f);
  auto res = lorenzo_construct(data, ext, 0.01, QuantConfig{});
  const auto r = static_cast<quant_t>(QuantConfig{}.radius());
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < 512; ++i) {
    if (res.quant[i] != r) ++nonzero;
  }
  EXPECT_EQ(nonzero, 2u);  // one per 256-chunk
  EXPECT_EQ(res.quant[0], r + 500);  // round(10/0.02) = 500
  EXPECT_EQ(res.quant[256], r + 500);
}

TEST(Lorenzo, OutliersUseResidualSpaceInPlusScheme) {
  // A huge isolated spike must overflow the quantizer and land in the
  // outlier stream as a residual, with the quant-code parked at radius.
  const Extents ext = Extents::d1(256);
  std::vector<float> data(256, 0.0f);
  data[100] = 1000.0f;
  const double eb = 0.01;
  auto res = lorenzo_construct(data, ext, eb, QuantConfig{});
  const auto r = static_cast<quant_t>(QuantConfig{}.radius());

  EXPECT_EQ(res.quant[100], r);
  EXPECT_EQ(res.quant[101], r);
  ASSERT_EQ(res.outliers.nnz(), 2u);
  EXPECT_EQ(res.outliers.indices, (std::vector<std::uint64_t>{100, 101}));
  EXPECT_EQ(res.outliers.values, (std::vector<qdiff_t>{50000, -50000}));  // round(1000/0.02), back down
  // And the round trip still honors the bound.
  const auto out = roundtrip_fine(data, ext, eb, QuantConfig{}, {});
  EXPECT_LE(max_error(data, out), eb + kFloatRounding);
}

TEST(Lorenzo, ValueSchemeUsesPlaceholderZero) {
  const Extents ext = Extents::d1(256);
  std::vector<float> data(256, 0.0f);
  data[100] = 1000.0f;
  auto res = lorenzo_construct(data, ext, 0.01, QuantConfig{}, OutlierScheme::kValue);
  EXPECT_EQ(res.quant[100], 0);
  ASSERT_EQ(res.outliers.nnz(), 1u);  // the value at 101 is 0: a zero is not stored
  EXPECT_EQ(res.outliers.indices[0], 100u);
  EXPECT_EQ(res.outliers.values[0], 50000);  // prequantized *value*
}

TEST(Lorenzo, ChunksAreIndependent) {
  // Mutating data in one chunk must not change quant-codes in another.
  const Extents ext = Extents::d1(1024);
  auto data = random_field(ext, 5);
  auto base = lorenzo_construct(data, ext, 1e-3, QuantConfig{});
  data[700] += 100.0f;  // chunk 2
  auto mutated = lorenzo_construct(data, ext, 1e-3, QuantConfig{});
  for (std::size_t i = 0; i < 512; ++i) {  // chunks 0-1 untouched
    EXPECT_EQ(base.quant[i], mutated.quant[i]) << "i=" << i;
  }
}

TEST(Lorenzo, SmallerCapacityProducesMoreOutliers) {
  const Extents ext = Extents::d2(64, 64);
  const auto data = random_field(ext, 12, 5.0f);
  const double eb = 1e-4;
  auto big = lorenzo_construct(data, ext, eb, QuantConfig{4096});
  auto small = lorenzo_construct(data, ext, eb, QuantConfig{16});
  EXPECT_GE(small.outliers.nnz(), big.outliers.nnz());
  EXPECT_GT(small.outliers.nnz(), 0u);
  // Both still reconstruct within bound.
  for (const auto cap : {std::uint32_t{16}, std::uint32_t{4096}}) {
    const auto out = roundtrip_fine(data, ext, eb, QuantConfig{cap}, {});
    EXPECT_LE(max_error(data, out), eb + kFloatRounding) << "cap=" << cap;
  }
}

TEST(Lorenzo, InvalidArgumentsThrow) {
  const Extents ext = Extents::d1(100);
  std::vector<float> data(50);
  EXPECT_THROW((void)lorenzo_construct(data, ext, 1e-3, QuantConfig{}),
               std::invalid_argument);
  std::vector<float> ok(100);
  EXPECT_THROW((void)lorenzo_construct(ok, ext, -1.0, QuantConfig{}), std::invalid_argument);
  EXPECT_THROW((void)lorenzo_construct(ok, ext, 1e-3, QuantConfig{7}), std::invalid_argument);

  std::vector<quant_t> q(100);
  std::vector<float> out(99);
  const sim::SparseVector<qdiff_t> none;
  EXPECT_THROW((void)lorenzo_reconstruct<float>(q, none, ext, 1e-3, 512, out),
               std::invalid_argument);
}

TEST(Lorenzo, MinimalSizes) {
  for (const int rank : {1, 2, 3}) {
    Extents ext = rank == 1 ? Extents::d1(1) : rank == 2 ? Extents::d2(1, 1) : Extents::d3(1, 1, 1);
    std::vector<float> data{3.14159f};
    const auto out = roundtrip_fine(data, ext, 1e-4, QuantConfig{}, {});
    EXPECT_LE(max_error(data, out), 1e-4 + kFloatRounding);
  }
}

// ---- Differential kernel tests ---------------------------------------------
//
// The kernels walk runs of kLorenzoRun chunks row by row with int32
// arithmetic.  These references are the per-element kernels they replaced:
// std::llround prequant with int64 neighbours read through each chunk's zero
// boundary, and per-chunk partial sums in the order the GPU lanes run them.
// Every output must match bit for bit.

template <typename T>
void reference_construct(const std::vector<T>& data, const Extents& ext, double eb,
                         const QuantConfig& qcfg, OutlierScheme scheme,
                         std::vector<quant_t>& quant, std::vector<qdiff_t>& outlier) {
  const ChunkShape cs = ChunkShape::for_rank(ext.rank);
  const double inv2eb = 1.0 / (2.0 * eb);
  const std::int64_t r = qcfg.radius();
  quant.assign(ext.count(), 0);
  outlier.assign(ext.count(), 0);
  for (std::size_t z = 0; z < ext.nz; ++z) {
    for (std::size_t y = 0; y < ext.ny; ++y) {
      for (std::size_t x = 0; x < ext.nx; ++x) {
        // Prequant of the neighbour (dz, dy, dx) back, 0 across the chunk origin.
        const auto nb = [&](std::size_t dz, std::size_t dy, std::size_t dx) -> std::int64_t {
          if (z % cs.cz < dz || y % cs.cy < dy || x % cs.cx < dx) return 0;
          return std::llround(static_cast<double>(data[ext.index(z - dz, y - dy, x - dx)]) *
                              inv2eb);
        };
        std::int64_t pred = 0;
        if (ext.rank == 1) pred = nb(0, 0, 1);
        if (ext.rank == 2) pred = nb(0, 1, 0) + nb(0, 0, 1) - nb(0, 1, 1);
        if (ext.rank == 3) {
          pred = nb(0, 1, 0) + nb(0, 0, 1) + nb(1, 0, 0) - nb(0, 1, 1) - nb(1, 1, 0) -
                 nb(1, 0, 1) + nb(1, 1, 1);
        }
        const std::int64_t delta = nb(0, 0, 0) - pred;
        const std::size_t i = ext.index(z, y, x);
        if (delta > -r && delta < r) {
          quant[i] = static_cast<quant_t>(delta + r);
        } else if (scheme == OutlierScheme::kResidual) {
          quant[i] = static_cast<quant_t>(r);
          outlier[i] = static_cast<qdiff_t>(delta);
        } else {
          outlier[i] = static_cast<qdiff_t>(nb(0, 0, 0));
        }
      }
    }
  }
}

template <typename T>
std::vector<T> reference_reconstruct(const std::vector<qdiff_t>& qprime, const Extents& ext,
                                     double eb) {
  const ChunkShape cs = ChunkShape::for_rank(ext.rank);
  std::vector<std::uint32_t> u(qprime.begin(), qprime.end());  // sums wrap mod 2^32
  for (std::size_t z0 = 0; z0 < ext.nz; z0 += cs.cz) {
    for (std::size_t y0 = 0; y0 < ext.ny; y0 += cs.cy) {
      for (std::size_t x0 = 0; x0 < ext.nx; x0 += cs.cx) {
        const std::size_t z1 = std::min(z0 + cs.cz, ext.nz);
        const std::size_t y1 = std::min(y0 + cs.cy, ext.ny);
        const std::size_t x1 = std::min(x0 + cs.cx, ext.nx);
        for (std::size_t z = z0; z < z1; ++z)  // x along every chunk row
          for (std::size_t y = y0; y < y1; ++y)
            for (std::size_t x = x0 + 1; x < x1; ++x)
              u[ext.index(z, y, x)] += u[ext.index(z, y, x - 1)];
        for (std::size_t z = z0; z < z1; ++z)  // y down every column
          for (std::size_t x = x0; x < x1; ++x)
            for (std::size_t y = y0 + 1; y < y1; ++y)
              u[ext.index(z, y, x)] += u[ext.index(z, y - 1, x)];
        for (std::size_t y = y0; y < y1; ++y)  // z along every pillar
          for (std::size_t x = x0; x < x1; ++x)
            for (std::size_t z = z0 + 1; z < z1; ++z)
              u[ext.index(z, y, x)] += u[ext.index(z - 1, y, x)];
      }
    }
  }
  std::vector<T> out(u.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    out[i] = static_cast<T>(static_cast<double>(static_cast<qdiff_t>(u[i])) * (2.0 * eb));
  }
  return out;
}

template <typename V>
bool same_bits(const V& a, const V& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(typename V::value_type)) == 0;
}

std::string describe(const Extents& e) {
  return std::to_string(e.nz) + "x" + std::to_string(e.ny) + "x" + std::to_string(e.nx);
}

/// Extents that straddle the run width (run - 1, run, run + 1, 2 run + 3)
/// and the chunk edges, plus a single element, a single row and a single
/// plane.
std::vector<Extents> straddling_extents(int rank) {
  const ChunkShape cs = ChunkShape::for_rank(rank);
  const std::size_t run = kLorenzoRun * cs.cx;
  const auto make = [rank](std::size_t nz, std::size_t ny, std::size_t nx) {
    return rank == 1 ? Extents::d1(nx) : rank == 2 ? Extents::d2(ny, nx) : Extents::d3(nz, ny, nx);
  };
  std::vector<Extents> out;
  for (const std::size_t nx : {run - 1, run, run + 1, 2 * run + 3}) {
    out.push_back(make(cs.cz + 2, cs.cy + 1, nx));
  }
  out.push_back(make(cs.cz - 1, cs.cy + 3, cs.cx + 1));  // chunk edges
  out.push_back(make(1, 1, 1));                          // a single element
  out.push_back(make(1, 1, run + 1));                    // a single row
  out.push_back(make(1, cs.cy + 1, cs.cx * 3 + 5));      // a single plane
  return out;
}

/// A rough random walk whose residuals land in and out of every capacity's
/// range, with exact ±(k + 1/2)·2eb ties and values whose |d|/2eb sits just
/// under 2^27 mixed in.
template <typename T>
std::vector<T> differential_field(const Extents& ext, double eb, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> step(-1.0, 1.0);
  std::uniform_int_distribution<int> k(-3000, 3000);
  const double two_eb = 2.0 * eb;
  std::vector<T> v(ext.count());
  double acc = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    acc = 0.9 * acc + step(rng) * (i % 5 == 0 ? 4000.0 : 3.0) * two_eb;
    v[i] = static_cast<T>(acc);
    if (i % 7 == 3) v[i] = static_cast<T>((k(rng) + 0.5) * two_eb);  // an exact tie
    if (i % 101 == 50) {
      const double limit = 0x1p27 * two_eb;
      const T under = std::nextafter(static_cast<T>(limit), T{0});
      v[i] = (i / 101) % 2 == 0 ? under : -under;
    }
  }
  return v;
}

class LorenzoDifferential : public ::testing::TestWithParam<int> {};

template <typename T>
void check_construct(int rank) {
  const double eb = 0x1p-7;  // a power of two: d/2eb is exact, so ties stay ties
  for (const Extents& ext : straddling_extents(rank)) {
    const auto data = differential_field<T>(ext, eb, static_cast<std::uint32_t>(ext.count()));
    for (const std::uint32_t cap : {4u, 16u, 1024u, 65536u}) {
      for (const auto scheme : {OutlierScheme::kResidual, OutlierScheme::kValue}) {
        std::vector<quant_t> quant;
        std::vector<qdiff_t> outlier;
        reference_construct(data, ext, eb, QuantConfig{cap}, scheme, quant, outlier);
        for (const auto variant : {ConstructVariant::kBaseline, ConstructVariant::kOptimized}) {
          SCOPED_TRACE(describe(ext) + " capacity " + std::to_string(cap) + " scheme " +
                       std::to_string(static_cast<int>(scheme)) + " variant " +
                       std::to_string(static_cast<int>(variant)));
          const auto res = lorenzo_construct(data, ext, eb, QuantConfig{cap}, scheme, variant);
          EXPECT_TRUE(same_bits(std::vector<quant_t>(res.quant.begin(), res.quant.end()), quant));
          // The section holds exactly the reference's nonzeros, in index order.
          sim::SparseVector<qdiff_t> want;
          for (std::size_t i = 0; i < outlier.size(); ++i) {
            if (outlier[i] == 0) continue;
            want.indices.push_back(i);
            want.values.push_back(outlier[i]);
          }
          EXPECT_EQ(res.outliers.indices, want.indices);
          EXPECT_EQ(res.outliers.values, want.values);
          if (scheme == OutlierScheme::kValue) continue;
          // The reconstruct from those codes and outliers is the reference's.
          for (const ReconstructVariant rv :
               {ReconstructVariant::kOptimizedPartialSum, ReconstructVariant::kNaivePartialSum}) {
            std::vector<qdiff_t> qprime(ext.count());
            for (std::size_t i = 0; i < qprime.size(); ++i) {
              qprime[i] = static_cast<qdiff_t>(quant[i]) - QuantConfig{cap}.radius() + outlier[i];
            }
            std::vector<T> got(ext.count());
            lorenzo_reconstruct<T>(std::span<const quant_t>(res.quant.data(), res.quant.size()),
                                   res.outliers, ext, eb, QuantConfig{cap}.radius(), got, {rv});
            EXPECT_TRUE(same_bits(got, reference_reconstruct<T>(qprime, ext, eb)));
          }
        }
      }
    }
  }
}

TEST_P(LorenzoDifferential, ConstructMatchesPerElementReferenceF32) {
  check_construct<float>(GetParam());
}

TEST_P(LorenzoDifferential, ConstructMatchesPerElementReferenceF64) {
  check_construct<double>(GetParam());
}

TEST_P(LorenzoDifferential, ReconstructMatchesPerChunkReference) {
  const int rank = GetParam();
  const double eb = 0x1p-7;
  for (const Extents& ext : straddling_extents(rank)) {
    std::mt19937 rng(static_cast<std::uint32_t>(ext.count()));
    // Small residuals, and residuals near ±2^30 whose partial sums wrap int32.
    for (const qdiff_t amp : {qdiff_t{40}, qdiff_t{1} << 30}) {
      std::uniform_int_distribution<qdiff_t> dist(-amp, amp);
      std::vector<qdiff_t> qprime(ext.count());
      for (auto& q : qprime) q = dist(rng);
      const auto want_f32 = reference_reconstruct<float>(qprime, ext, eb);
      const auto want_f64 = reference_reconstruct<double>(qprime, ext, eb);
      for (const ReconstructConfig rcfg :
           {ReconstructConfig{ReconstructVariant::kOptimizedPartialSum},
            ReconstructConfig{ReconstructVariant::kNaivePartialSum}}) {
        SCOPED_TRACE(describe(ext) + " amplitude " + std::to_string(amp) + " variant " +
                     std::to_string(static_cast<int>(rcfg.variant)));
        for (const std::int32_t radius : {2, 512, 32768}) {
          std::vector<quant_t> quant;
          sim::SparseVector<qdiff_t> outliers;
          split_residuals(qprime, radius, quant, outliers);
          std::vector<float> out32(ext.count());
          lorenzo_reconstruct<float>(quant, outliers, ext, eb, radius, out32, rcfg);
          EXPECT_TRUE(same_bits(out32, want_f32)) << "radius " << radius;
          std::vector<double> out64(ext.count());
          lorenzo_reconstruct<double>(quant, outliers, ext, eb, radius, out64, rcfg);
          EXPECT_TRUE(same_bits(out64, want_f64)) << "radius " << radius;
        }
      }
    }
  }
}

TEST_P(LorenzoDifferential, CheckedModesRunTheSameKernels) {
  // Interval and word-granular checking run the same passes through the
  // views, and word mode runs the partial sums' lane model under the
  // shadow.
  const int rank = GetParam();
  const Extents ext = straddling_extents(rank)[3];  // 2 runs + 3 columns
  const double eb = 0x1p-7;
  const auto data = differential_field<float>(ext, eb, 7);
  const auto run_all = [&](ReconstructVariant variant) {
    const auto res = lorenzo_construct(data, ext, eb, QuantConfig{});
    std::vector<float> out(ext.count());
    lorenzo_reconstruct<float>(std::span<const quant_t>(res.quant.data(), res.quant.size()),
                               res.outliers, ext, eb, QuantConfig{}.radius(), out, {variant});
    return std::make_tuple(std::vector<quant_t>(res.quant.begin(), res.quant.end()),
                           res.outliers.indices, res.outliers.values, out);
  };
  for (const auto variant :
       {ReconstructVariant::kOptimizedPartialSum, ReconstructVariant::kNaivePartialSum}) {
    decltype(run_all(variant)) unchecked;
    {
      sim::checked::ScopedMode off(sim::checked::Mode::kOff);
      unchecked = run_all(variant);
    }
    for (const auto mode : {sim::checked::Mode::kInterval, sim::checked::Mode::kWord}) {
      SCOPED_TRACE("variant " + std::to_string(static_cast<int>(variant)) + " mode " +
                   std::to_string(static_cast<int>(mode)));
      sim::checked::ScopedMode checked(mode);
      EXPECT_EQ(run_all(variant), unchecked);
      const auto& report = sim::checked::current_report();
      EXPECT_TRUE(report.clean()) << sim::checked::report_text();
      EXPECT_GT(report.launches_checked, 0u);
      if (mode == sim::checked::Mode::kWord) EXPECT_GT(report.shadow_words, 0u);
    }
  }
}

TEST_P(LorenzoDifferential, SectionDoesNotDependOnTheThreadCount) {
  // Blocks compact into their own windows and the merge walks them in
  // index order, so the team size cannot reorder the section.
  const int rank = GetParam();
  const Extents ext = straddling_extents(rank)[3];
  const double eb = 0x1p-7;
  const auto data = differential_field<float>(ext, eb, 11);
  const auto run = [&]([[maybe_unused]] int threads) {
#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    omp_set_num_threads(threads);
#endif
    const auto res = lorenzo_construct(data, ext, eb, QuantConfig{16});
#ifdef _OPENMP
    omp_set_num_threads(saved);
#endif
    return std::make_pair(res.outliers.indices, res.outliers.values);
  };
  const auto one = run(1);
  EXPECT_GT(one.first.size(), ext.count() / 10);
  EXPECT_EQ(run(4), one);
}

INSTANTIATE_TEST_SUITE_P(Ranks, LorenzoDifferential, ::testing::Values(1, 2, 3));

}  // namespace
