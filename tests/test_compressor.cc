// End-to-end Compressor tests: error-bound invariant across workflows,
// archive integrity, workflow auto-selection, stats coherence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/codec/codec.hh"
#include "core/compressor.hh"
#include "core/metrics.hh"
#include "one_lane_archive.hh"

namespace {

using namespace szp;

std::vector<float> smooth_field(const Extents& ext, std::uint32_t seed, float noise) {
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

Extents extents_for(int rank) {
  switch (rank) {
    case 1: return Extents::d1(3000);
    case 2: return Extents::d2(50, 60);
    default: return Extents::d3(14, 15, 16);
  }
}

class CompressorSweep
    : public ::testing::TestWithParam<std::tuple<int, double, Workflow>> {};

TEST_P(CompressorSweep, RoundTripHonorsErrorBound) {
  const auto [rank, eb, wf] = GetParam();
  const Extents ext = extents_for(rank);
  const auto data = smooth_field(ext, static_cast<std::uint32_t>(rank), 0.001f);

  // The one-lane rANS format (tag 3) is decode-only: its archive is the
  // eight-lane one with the stream re-encoded at one lane.
  const bool one_lane = wf == Workflow::kRansOneLane;
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(eb);
  cfg.workflow = one_lane ? Workflow::kRans : wf;
  const Compressor comp(cfg);
  const auto compressed = comp.compress(data, ext);
  // Plain RLE legitimately drops below 1x on rough data at tight bounds —
  // exactly the failure mode the workflow selector exists to avoid.
  EXPECT_GT(compressed.stats.ratio, wf == Workflow::kRle ? 0.8 : 1.0);
  EXPECT_EQ(compressed.stats.original_bytes, data.size() * 4);
  EXPECT_EQ(compressed.stats.compressed_bytes, compressed.bytes.size());

  const auto archive = one_lane ? test::one_lane_archive(compressed.bytes) : compressed.bytes;
  const auto restored = Compressor::decompress(archive);
  if (one_lane) {
    EXPECT_EQ(Compressor::inspect(archive).workflow, Workflow::kRansOneLane);
    EXPECT_EQ(restored.data, Compressor::decompress(compressed.bytes).data);
  }
  EXPECT_EQ(restored.extents, ext);
  const auto m = compare_fields(data, restored.data);
  EXPECT_LT(m.max_abs_error, compressed.stats.eb_abs)
      << "rank=" << rank << " eb=" << eb << " wf=" << static_cast<int>(wf);
}

INSTANTIATE_TEST_SUITE_P(
    RankEbWorkflow, CompressorSweep,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(1e-2, 1e-3, 1e-4),
                       ::testing::Values(Workflow::kHuffman, Workflow::kRle,
                                         Workflow::kRleVle, Workflow::kRansOneLane,
                                         Workflow::kRans, Workflow::kAuto)));

TEST(Compressor, Psnr85DbAtRelEb1em4) {
  // The paper reports PSNR > 85 dB at rel-eb 1e-4 (§V-C.2).  The analytic
  // floor for uniform quantization error at rel-eb 1e-4 is
  // -10*log10(eb^2/3) = 84.77 dB; real residual distributions sit at or
  // above it, so assert against the floor.
  const Extents ext = Extents::d2(100, 120);
  const auto data = smooth_field(ext, 77, 0.01f);
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-4);
  const auto c = Compressor(cfg).compress(data, ext);
  const auto d = Compressor::decompress(c.bytes);
  EXPECT_GT(compare_fields(data, d.data).psnr_db, 84.7);
}

TEST(Compressor, AutoSelectsSubBitCodecOnVerySmoothData) {
  const Extents ext = Extents::d1(100000);
  std::vector<float> data(ext.count(), 5.0f);  // constant field, p1 ~ 1
  data[50000] = 5.5f;
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(0.01);
  cfg.workflow = Workflow::kAuto;
  const auto c = Compressor(cfg).compress(data, ext);
  // Huffman is pinned at its 1-bit floor here (⟨b⟩ ≤ 1.09, the paper's §III
  // cue); the cost model routes to the fractional-bit rANS stage and the
  // archive must round-trip through it within the bound.
  EXPECT_EQ(c.stats.workflow_used, Workflow::kRans);
  EXPECT_LE(std::max(1.0, c.stats.decision.stats.avg_bits_lower()), 1.09);
  // A sub-bit codec breaks Huffman's 32x float ceiling on this field.
  EXPECT_GT(c.stats.ratio, 32.0);
  const auto d = Compressor::decompress(c.bytes);
  ASSERT_EQ(d.data.size(), data.size());
  float max_err = 0.0f;
  for (std::size_t i = 0; i < data.size(); ++i) {
    max_err = std::max(max_err, std::abs(data[i] - d.data[i]));
  }
  EXPECT_LT(max_err, 0.01f);
}

TEST(Compressor, AutoSelectsHuffmanOnRoughData) {
  const Extents ext = Extents::d1(50000);
  std::mt19937 rng(3);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> data(ext.count());
  for (auto& x : data) x = dist(rng);
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-3);
  cfg.workflow = Workflow::kAuto;
  const auto c = Compressor(cfg).compress(data, ext);
  EXPECT_EQ(c.stats.workflow_used, Workflow::kHuffman);
}

TEST(Compressor, RleVleBeatsPlainRleOnSmoothData) {
  const Extents ext = Extents::d1(200000);
  const auto data = smooth_field(ext, 9, 0.0f);
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-2);
  cfg.workflow = Workflow::kRle;
  const auto rle = Compressor(cfg).compress(data, ext);
  cfg.workflow = Workflow::kRleVle;
  const auto rle_vle = Compressor(cfg).compress(data, ext);
  EXPECT_GT(rle_vle.stats.ratio, rle.stats.ratio);
}

TEST(Compressor, PipelineStagesArePresent) {
  const Extents ext = Extents::d2(40, 40);
  const auto data = smooth_field(ext, 4, 0.001f);
  CompressConfig cfg;
  cfg.workflow = Workflow::kHuffman;
  const auto c = Compressor(cfg).compress(data, ext);
  for (const char* stage : {"lorenzo_construct", "gather_outlier", "histogram",
                            "huffman_book", "huffman_encode"}) {
    EXPECT_NE(c.stats.pipeline.find(stage), nullptr) << stage;
  }
  const auto d = Compressor::decompress(c.bytes);
  for (const char* stage : {"huffman_decode", "scatter_outlier", "lorenzo_reconstruct"}) {
    EXPECT_NE(d.pipeline.find(stage), nullptr) << stage;
  }
}

TEST(Compressor, AbsoluteErrorBoundMode) {
  const Extents ext = Extents::d1(5000);
  const auto data = smooth_field(ext, 5, 0.01f);
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(0.005);
  const auto c = Compressor(cfg).compress(data, ext);
  EXPECT_DOUBLE_EQ(c.stats.eb_abs, 0.005);
  const auto d = Compressor::decompress(c.bytes);
  EXPECT_LT(compare_fields(data, d.data).max_abs_error, 0.005);
}

TEST(Compressor, ReconstructVariantsAgree) {
  const Extents ext = Extents::d3(10, 20, 30);
  const auto data = smooth_field(ext, 6, 0.002f);
  const auto c = Compressor(CompressConfig{}).compress(data, ext);
  const auto opt = Compressor::decompress(c.bytes, {ReconstructVariant::kOptimizedPartialSum});
  const auto naive = Compressor::decompress(c.bytes, {ReconstructVariant::kNaivePartialSum});
  EXPECT_EQ(opt.data, naive.data);
}

TEST(Compressor, RansWorkflowBreaksTheHuffmanFloor) {
  // Extension workflow: fractional-bit entropy coding.  On a near-constant
  // field Huffman pays >= 1 bit per value (32x ceiling); rANS does not.
  const Extents ext = Extents::d1(400000);
  std::vector<float> data(ext.count(), 3.0f);
  for (std::size_t i = 0; i < data.size(); i += 997) data[i] = 3.01f;
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  cfg.workflow = Workflow::kHuffman;
  const auto huff = Compressor(cfg).compress(data, ext);
  cfg.workflow = Workflow::kRans;
  const auto rans = Compressor(cfg).compress(data, ext);
  EXPECT_LE(huff.stats.ratio, 33.0);
  EXPECT_GT(rans.stats.ratio, 60.0);
  const auto d = Compressor::decompress(rans.bytes);
  EXPECT_LT(compare_fields(data, d.data).max_abs_error, 1e-3);
}

TEST(Compressor, PsnrTargetMode) {
  // SZ's PSNR mode (paper §VI): derive eb from a target PSNR.  The uniform
  // error model makes the analytic target the worst case, so the achieved
  // PSNR should land at or above it.
  const Extents ext = Extents::d2(120, 150);
  const auto data = smooth_field(ext, 30, 0.01f);
  for (const double target : {60.0, 80.0, 100.0}) {
    CompressConfig cfg;
    cfg.eb = ErrorBound::psnr(target);
    const auto c = Compressor(cfg).compress(data, ext);
    const auto d = Compressor::decompress(c.bytes);
    const double achieved = compare_fields(data, d.data).psnr_db;
    EXPECT_GT(achieved, target - 0.5) << target;
    EXPECT_LT(achieved, target + 15.0) << target;  // not wastefully tight
  }
}

TEST(Compressor, RejectsBadInput) {
  const Compressor comp;
  std::vector<float> empty;
  EXPECT_THROW((void)comp.compress(empty, Extents::d1(0)), std::invalid_argument);

  std::vector<float> data(10, 1.0f);
  EXPECT_THROW((void)comp.compress(data, Extents::d1(11)), std::invalid_argument);

  std::vector<float> with_nan(10, 1.0f);
  with_nan[3] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW((void)comp.compress(with_nan, Extents::d1(10)), std::invalid_argument);

  // eb too tight for exact integer residuals.
  std::vector<float> wide(10);
  for (std::size_t i = 0; i < wide.size(); ++i) wide[i] = static_cast<float>(i) * 1e6f;
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-6);
  EXPECT_THROW((void)Compressor(cfg).compress(wide, Extents::d1(10)), std::invalid_argument);
}

// The Lorenzo kernels hold prequant values in int32 and rely on max|d|/2eb
// < 2^27 (validate_exactness): just under it a field round-trips within
// eb, just over it the compress throws.  Only f64 can get there: f32 meets
// the precision guard first, at max|d| >= 2^21 * eb.
TEST(Compressor, ExactnessLimitIsPinned) {
  const double eb = 1e-3;
  for (const int rank : {1, 2, 3}) {
    const Extents ext = rank == 1   ? Extents::d1(3000)
                        : rank == 2 ? Extents::d2(40, 70)
                                    : Extents::d3(9, 17, 20);
    for (const double scale : {1.0 - 1e-6, 1.0 + 1e-6}) {
      const double max_abs = 0x1p27 * scale * 2.0 * eb;
      const auto base = smooth_field(ext, static_cast<std::uint32_t>(rank), 0.01f);
      std::vector<double> data(base.begin(), base.end());
      for (double& v : data) v *= 0.5 * max_abs;  // |v| stays well below max_abs
      data[ext.count() / 2] = max_abs;
      data[ext.count() / 3] = -max_abs;
      CompressConfig cfg;
      cfg.eb = ErrorBound::absolute(eb);
      SCOPED_TRACE("rank " + std::to_string(rank) + " scale " + std::to_string(scale));
      if (scale > 1.0) {
        try {
          (void)Compressor(cfg).compress(data, ext);
          ADD_FAILURE() << "compressed past the exactness limit";
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find("2^27"), std::string::npos) << e.what();
        }
        continue;
      }
      const auto c = Compressor(cfg).compress(data, ext);
      const auto d = Compressor::decompress(c.bytes);
      double max_err = 0.0;
      for (std::size_t i = 0; i < data.size(); ++i) {
        max_err = std::max(max_err, std::abs(data[i] - d.data_f64[i]));
      }
      EXPECT_LE(max_err, eb);
    }
  }
}

TEST(Compressor, RejectsCorruptArchives) {
  const Extents ext = Extents::d1(1000);
  const auto data = smooth_field(ext, 8, 0.001f);
  auto c = Compressor(CompressConfig{}).compress(data, ext);

  std::vector<std::uint8_t> bad_magic = c.bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW((void)Compressor::decompress(bad_magic), std::runtime_error);

  std::vector<std::uint8_t> truncated(c.bytes.begin(), c.bytes.begin() + 20);
  EXPECT_THROW((void)Compressor::decompress(truncated), std::runtime_error);
}

TEST(Compressor, ConstantFieldCompressesMassively) {
  const Extents ext = Extents::d3(16, 32, 32);
  std::vector<float> data(ext.count(), 2.5f);
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  cfg.workflow = Workflow::kRleVle;
  const auto c = Compressor(cfg).compress(data, ext);
  EXPECT_GT(c.stats.ratio, 50.0);
  const auto d = Compressor::decompress(c.bytes);
  EXPECT_LT(compare_fields(data, d.data).max_abs_error, 1e-3);
}

TEST(Compressor, NegativeValuesAndOffsets) {
  const Extents ext = Extents::d2(30, 40);
  auto data = smooth_field(ext, 10, 0.005f);
  for (auto& x : data) x = x * 100.0f - 250.0f;
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-3);
  const auto c = Compressor(cfg).compress(data, ext);
  const auto d = Compressor::decompress(c.bytes);
  EXPECT_LT(compare_fields(data, d.data).max_abs_error, c.stats.eb_abs);
}

TEST(Compressor, ArchiveIsAllocatedOnce) {
  // Every codec writes its section into an archive allocated once at its
  // exact size, so nothing is left over: capacity equals size.  Spikes on
  // every seventh element of a smooth field leave a 64-code quantizer as
  // outliers; a flat field leaves the outlier section empty, and one
  // element is the smallest field there is.
  struct Field {
    const char* name;
    Extents ext;
    float spike;  ///< 0: a flat field
  };
  const Field fields[] = {{"1-d spikes", Extents::d1(5000), 50.0f},
                          {"3-d spikes", Extents::d3(9, 10, 11), 50.0f},
                          {"1-d flat", Extents::d1(5000), 0.0f},
                          {"3-d flat", Extents::d3(9, 10, 11), 0.0f},
                          {"one element", Extents::d1(1), 0.0f}};
  for (const pipeline::LosslessCodec* codec : pipeline::codecs()) {
    for (const Field& f : fields) {
      SCOPED_TRACE(std::string(codec->name()) + ", " + f.name);
      std::vector<float> data(f.ext.count(), 0.01f);
      if (f.spike != 0.0f) {
        data = smooth_field(f.ext, 7, 0.001f);
        for (std::size_t i = 0; i < data.size(); i += 7) data[i] += f.spike;
      }
      const std::vector<double> data64(data.begin(), data.end());
      CompressConfig cfg;
      cfg.eb = ErrorBound::absolute(1e-3);
      cfg.quant.capacity = 64;
      cfg.workflow = codec->id();
      const Compressor comp(cfg);
      const auto check = [&](const Compressed& c) {
        EXPECT_EQ(c.bytes.capacity(), c.bytes.size());
        EXPECT_EQ(c.stats.compressed_bytes, c.bytes.size());
        if (f.spike == 0.0f) EXPECT_EQ(c.stats.outlier_count, 0u);
        if (f.spike != 0.0f) EXPECT_GT(c.stats.outlier_count, 0u);
        EXPECT_EQ(Compressor::inspect(c.bytes).workflow, codec->id());
        return Compressor::decompress(c.bytes);
      };
      const auto d32 = check(comp.compress(data, f.ext));
      EXPECT_EQ(d32.extents, f.ext);
      EXPECT_LT(compare_fields(data, d32.data).max_abs_error, 1e-3);
      const auto d64 = check(comp.compress(data64, f.ext));
      EXPECT_EQ(d64.extents, f.ext);
      EXPECT_LT(compare_fields(data64, d64.data_f64).max_abs_error, 1e-3);
    }
  }
}

TEST(Compressor, OutlierHeavyFieldStaysBounded) {
  // Spiky data forces many residuals out of quantizer range.
  const Extents ext = Extents::d1(10000);
  std::mt19937 rng(13);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> data(ext.count(), 0.0f);
  for (std::size_t i = 0; i < data.size(); i += 7) data[i] = 50.0f * dist(rng);
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  cfg.quant.capacity = 256;  // tiny quantizer: most spikes become outliers
  const auto c = Compressor(cfg).compress(data, ext);
  EXPECT_GT(c.stats.outlier_count, 1000u);
  const auto d = Compressor::decompress(c.bytes);
  EXPECT_LT(compare_fields(data, d.data).max_abs_error, 1e-3);
}

}  // namespace
