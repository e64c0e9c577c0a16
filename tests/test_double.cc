// Double-precision path: the paper's 64x VLE ceiling for doubles, error
// bounds below float32 precision, float/double parity, and the one
// dtype-generic entry type (FieldView) every call shape converts to.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/compressor.hh"
#include "core/io/io.hh"
#include "core/metrics.hh"
#include "core/streaming.hh"
#include "sim/aligned.hh"

namespace {

using namespace szp;

std::vector<double> smooth_field_f64(const Extents& ext, std::uint32_t seed, double noise) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(ext.count());
  double acc = 0.0;
  for (auto& x : v) {
    acc = 0.995 * acc + 0.02 * dist(rng);
    x = acc + noise * dist(rng);
  }
  return v;
}

class DoubleSweep : public ::testing::TestWithParam<std::tuple<int, double, Workflow>> {};

/// Every predictor, on the smooth field at a relative bound and on the field
/// offset by 1000 at the same absolute bound: near 1000 the float32 spacing
/// (6.1e-5) is coarser than 1e-5, so nothing a predictor keeps as float may
/// reach the output.  The offset field also goes through the 2-worker slab
/// engine.
TEST_P(DoubleSweep, RoundTripHonorsErrorBound) {
  const auto [rank, eb, wf] = GetParam();
  const Extents ext = rank == 1   ? Extents::d1(3000)
                      : rank == 2 ? Extents::d2(50, 60)
                                  : Extents::d3(14, 15, 16);
  const auto data = smooth_field_f64(ext, static_cast<std::uint32_t>(rank), 1e-3);
  auto offset = data;
  for (auto& x : offset) x += 1000.0;

  for (const PredictorKind pred :
       {PredictorKind::kLorenzo, PredictorKind::kRegression, PredictorKind::kInterpolation}) {
    SCOPED_TRACE(pred == PredictorKind::kLorenzo      ? "lorenzo"
                 : pred == PredictorKind::kRegression ? "regression"
                                                      : "interpolation");
    CompressConfig cfg;
    cfg.workflow = wf;
    cfg.predictor = pred;
    using Case = std::pair<const std::vector<double>*, ErrorBound>;
    for (const auto& [field, bound] :
         {Case{&data, ErrorBound::relative(eb)}, Case{&offset, ErrorBound::absolute(eb)}}) {
      cfg.eb = bound;
      const auto c = Compressor(cfg).compress(*field, ext);
      const auto d = Compressor::decompress(c.bytes);
      ASSERT_EQ(d.dtype, DType::kFloat64);
      EXPECT_TRUE(d.data.empty());
      ASSERT_EQ(d.data_f64.size(), field->size());
      EXPECT_LT(compare_fields(*field, d.data_f64).max_abs_error, c.stats.eb_abs)
          << (field == &data ? "relative" : "absolute, offset by 1000");
    }

    StreamingConfig scfg;
    scfg.base = cfg;
    scfg.workers = 2;
    scfg.max_slab_elems = ext.count() / 4;
    const auto container = StreamingCompressor(scfg).compress(offset, ext).bytes;
    const auto d = StreamingCompressor::decompress(container);
    ASSERT_EQ(d.data_f64.size(), offset.size());
    EXPECT_LT(compare_fields(offset, d.data_f64).max_abs_error, eb) << "2-worker slabs";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RankEbWorkflow, DoubleSweep,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(1e-3, 1e-5),
                       ::testing::Values(Workflow::kHuffman, Workflow::kRleVle)));

TEST(DoubleCompressor, BoundsBelowFloat32PrecisionWork) {
  // rel-eb 1e-6 on O(1) data is near float32's 2^-23 resolution; the double
  // path must accept it and honor it.
  const Extents ext = Extents::d1(20000);
  const auto data = smooth_field_f64(ext, 7, 1e-5);
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-6);
  const auto c = Compressor(cfg).compress(data, ext);
  const auto d = Compressor::decompress(c.bytes);
  const auto m = compare_fields(data, d.data_f64);
  EXPECT_LT(m.max_abs_error, c.stats.eb_abs);
  EXPECT_GT(m.psnr_db, 110.0);
}

TEST(DoubleCompressor, CeilingIs64xNot32x) {
  // A constant double field: Huffman floor of 1 bit/symbol over 64-bit
  // values allows up to ~64x — the paper's §III observation.
  const Extents ext = Extents::d1(300000);
  std::vector<double> data(ext.count(), 42.0);
  data[12345] = 42.5;
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  cfg.workflow = Workflow::kHuffman;
  const auto c = Compressor(cfg).compress(data, ext);
  EXPECT_GT(c.stats.ratio, 32.0);
  EXPECT_LT(c.stats.ratio, 70.0);
  // And the selector's Huffman ratio estimate uses the 64-bit width.
  const auto& scores = c.stats.decision.scores;
  const auto huffman = std::find_if(scores.begin(), scores.end(), [](const CodecScore& s) {
    return s.workflow == Workflow::kHuffman;
  });
  ASSERT_NE(huffman, scores.end());
  EXPECT_GT(huffman->est_ratio, 32.0);
}

TEST(DoubleCompressor, FloatAndDoubleAgreeOnFloatData) {
  // Compressing float data promoted to double must reconstruct the same
  // prequant integers (same eb), so outputs agree within the bound.
  const Extents ext = Extents::d2(40, 50);
  std::mt19937 rng(3);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> f32(ext.count());
  float acc = 0.0f;
  for (auto& x : f32) {
    acc = 0.99f * acc + 0.05f * dist(rng);
    x = acc;
  }
  std::vector<double> f64(f32.begin(), f32.end());

  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  const auto cf = Compressor(cfg).compress(f32, ext);
  const auto cd = Compressor(cfg).compress(f64, ext);
  const auto df = Compressor::decompress(cf.bytes);
  const auto dd = Compressor::decompress(cd.bytes);
  for (std::size_t i = 0; i < f32.size(); ++i) {
    EXPECT_NEAR(df.data[i], dd.data_f64[i], 2e-3) << i;
  }
}

TEST(DoubleCompressor, OriginalBytesReflectElementWidth) {
  const Extents ext = Extents::d1(1000);
  const auto data = smooth_field_f64(ext, 9, 1e-4);
  const auto c = Compressor(CompressConfig{}).compress(data, ext);
  EXPECT_EQ(c.stats.original_bytes, 8000u);
}

TEST(DoubleCompressor, RejectsNonFinite) {
  std::vector<double> data(100, 1.0);
  data[50] = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)Compressor(CompressConfig{}).compress(data, Extents::d1(100)),
               std::invalid_argument);
}

template <typename T>
class FieldViewShapes : public ::testing::Test {};
using ElementTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(FieldViewShapes, ElementTypes);

TYPED_TEST(FieldViewShapes, EveryCallShapeCompressesToTheSameBytes) {
  using T = TypeParam;
  const DType dtype = std::is_same_v<T, float> ? DType::kFloat32 : DType::kFloat64;
  const Extents ext = Extents::d2(48, 40);
  const auto smooth = smooth_field_f64(ext, 11, 1e-3);
  const std::vector<T> field(smooth.begin(), smooth.end());
  std::vector<T> writable = field;
  const sim::device_vector<T> device(field.begin(), field.end());
  const std::span<const std::uint8_t> bytes(reinterpret_cast<const std::uint8_t*>(field.data()),
                                            field.size() * sizeof(T));

  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-4);
  const Compressor comp(cfg);
  const auto archive = comp.compress(field, ext).bytes;
  EXPECT_EQ(Compressor::inspect(archive).dtype, dtype);
  EXPECT_EQ(comp.compress(std::span<const T>(field), ext).bytes, archive);
  EXPECT_EQ(comp.compress(std::span<T>(writable), ext).bytes, archive);
  EXPECT_EQ(comp.compress(device, ext).bytes, archive);
  EXPECT_EQ(comp.compress(std::vector<T>(field), ext).bytes, archive);
  EXPECT_EQ(comp.compress(FieldView(bytes, dtype), ext).bytes, archive);

  StreamingConfig scfg;
  scfg.base = cfg;
  scfg.max_slab_elems = 10 * ext.nx;  // five slabs
  const StreamingCompressor streamer(scfg);
  const auto container = streamer.compress(field, ext).bytes;
  EXPECT_EQ(StreamingCompressor::slab_count(container), 5u);
  EXPECT_EQ(StreamingCompressor::index(container).dtype, dtype);
  EXPECT_EQ(streamer.compress(std::span<const T>(field), ext).bytes, container);
  EXPECT_EQ(streamer.compress(device, ext).bytes, container);
  EXPECT_EQ(streamer.compress(FieldView(bytes, dtype), ext).bytes, container);
  io::SpanFieldSource src(bytes);
  io::VectorSink sink;
  (void)streamer.compress_stream(src, dtype, ext, sink);
  EXPECT_EQ(sink.take(), container);
}

TEST(FieldView, RawBytesMustBeWholeElements) {
  const std::vector<std::uint8_t> raw(16);
  const std::span<const std::uint8_t> bytes(raw);
  EXPECT_THROW((void)FieldView(bytes.first(7), DType::kFloat64), std::invalid_argument);
  EXPECT_THROW((void)FieldView(bytes.first(6), DType::kFloat32), std::invalid_argument);
  EXPECT_THROW((void)FieldView(bytes.first(12), DType::kFloat64), std::invalid_argument);
  EXPECT_EQ(FieldView(bytes.first(12), DType::kFloat32).size(), 3u);
  EXPECT_EQ(FieldView(bytes, DType::kFloat64).size(), 2u);
  EXPECT_TRUE(FieldView(bytes.first(0), DType::kFloat64).empty());
}

TEST(DoubleStreaming, DecompressSlabFillsOnlyTheF64FieldAndCarriesItsReport) {
  const Extents ext = Extents::d2(48, 40);
  const auto data = smooth_field_f64(ext, 5, 1e-3);
  StreamingConfig scfg;
  scfg.base.eb = ErrorBound::relative(1e-4);
  scfg.max_slab_elems = 10 * ext.nx;
  const auto container = StreamingCompressor(scfg).compress(data, ext).bytes;
  const auto whole = StreamingCompressor::decompress(container);
  ASSERT_EQ(whole.dtype, DType::kFloat64);
  ASSERT_EQ(whole.data_f64.size(), data.size());

  const ContainerIndex index = StreamingCompressor::index(container);
  ASSERT_EQ(index.slabs.size(), 5u);
  for (std::size_t s = 0; s < index.slabs.size(); ++s) {
    SlabInfo info;
    const auto slab = StreamingCompressor::decompress_slab(index, s, &info);
    EXPECT_EQ(slab.dtype, DType::kFloat64) << s;
    EXPECT_TRUE(slab.data.empty()) << s;
    ASSERT_EQ(slab.data_f64.size(), info.extents.count()) << s;
    EXPECT_EQ(slab.extents, info.extents) << s;
    EXPECT_TRUE(std::equal(slab.data_f64.begin(), slab.data_f64.end(),
                           whole.data_f64.begin() + static_cast<std::ptrdiff_t>(info.offset)))
        << s;
    // The slab archive's own decode report: the same stages, in order, as
    // decoding that archive directly.
    const auto direct = Compressor::decompress(index.slabs[s].bytes);
    ASSERT_EQ(slab.pipeline.stages.size(), direct.pipeline.stages.size()) << s;
    ASSERT_FALSE(slab.pipeline.stages.empty()) << s;
    for (std::size_t k = 0; k < slab.pipeline.stages.size(); ++k) {
      EXPECT_EQ(slab.pipeline.stages[k].name, direct.pipeline.stages[k].name) << s;
      EXPECT_EQ(slab.pipeline.stages[k].payload_bytes, info.extents.count() * sizeof(double))
          << s;
    }
    EXPECT_NE(slab.pipeline.find("lorenzo_reconstruct"), nullptr) << s;
  }
}

}  // namespace
