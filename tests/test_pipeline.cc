// Stage-pipeline architecture tests: golden archives pin the byte layout
// across the stage/workspace refactors, the workspace pool is checked for
// allocation-free steady state in both directions, one workspace serving
// decodes and compressions in any order must match fresh calls, parallel
// slab streaming must produce the same container as serial, and the stage
// and codec tables must follow the tags the archive header stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/cusz_ref.hh"
#include "core/archive.hh"
#include "core/codec/codec.hh"
#include "core/compressor.hh"
#include "core/error.hh"
#include "core/huffman/codebook.hh"
#include "core/huffman/codec.hh"
#include "core/io/io.hh"
#include "core/pipeline/stage.hh"
#include "core/rle/rle.hh"
#include "core/streaming.hh"
#include "one_lane_archive.hh"
#include "zfp/zfp.hh"

namespace {

using namespace szp;

// The goldens were generated from this exact input (committed under
// tests/golden/, regenerated only on a deliberate format break).
std::vector<float> wave_f32(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    v[i] = static_cast<float>(std::sin(x * 0.05) + 0.3 * std::cos(x * 0.017));
  }
  return v;
}

std::vector<double> wave_f64(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    v[i] = std::sin(x * 0.05) + 0.3 * std::cos(x * 0.017);
  }
  return v;
}

std::vector<std::uint8_t> golden(const std::string& name) {
  return io::read_file(std::string(SZP_GOLDEN_DIR) + "/" + name);
}

/// A wave under uniform noise: with a 16-code quantizer and a 1e-3 bound
/// most residuals fall outside the radius, so the archive carries a dense
/// outlier stream.
template <typename T>
std::vector<T> noisy(std::size_t n, std::uint32_t seed) {
  std::vector<T> v(n);
  std::uint32_t x = seed;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    const double u = static_cast<double>(x >> 8) / static_cast<double>(1u << 24);
    v[i] = static_cast<T>(std::sin(static_cast<double>(i) * 0.05) + (u - 0.5));
  }
  return v;
}

template <typename T>
std::vector<std::uint8_t> noisy_archive(PredictorKind predictor, Workflow wf, const Extents& ext,
                                        std::uint32_t seed) {
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  cfg.quant.capacity = 16;
  cfg.predictor = predictor;
  cfg.workflow = wf;
  return Compressor(cfg).compress(noisy<T>(ext.count(), seed), ext).bytes;
}

/// The decoded field as raw bytes.  Both vectors together must hold no
/// more than the field: the one its dtype does not select stays empty.
std::vector<std::uint8_t> field_bytes(const Decompressed& d) {
  const auto b = d.bytes();
  EXPECT_EQ(d.data.size() * sizeof(float) + d.data_f64.size() * sizeof(double), b.size());
  return {b.begin(), b.end()};
}

struct GoldenCase {
  const char* predictor_name;
  PredictorKind predictor;
  const char* workflow_name;
  Workflow workflow;
};

// gtest lists each case with its printed parameter, and CTest takes that
// listing into the test name. The default printer dumps the raw bytes —
// pointers and padding that change from run to run — so print the two
// enum values instead to keep the names stable.
void PrintTo(const GoldenCase& gc, std::ostream* os) {
  *os << '{' << static_cast<int>(gc.predictor) << ", " << static_cast<int>(gc.workflow) << '}';
}

class GoldenArchive : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenArchive, BitIdenticalAcrossRefactor) {
  const GoldenCase& gc = GetParam();
  // The one-lane rANS format (tag 3) has no encoder: its goldens, written
  // before kRans moved to eight lanes, are rebuilt from the eight-lane
  // archive with the stream re-encoded at one lane, byte for byte.
  const bool one_lane = gc.workflow == Workflow::kRansOneLane;
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  cfg.workflow = one_lane ? Workflow::kRans : gc.workflow;
  cfg.predictor = gc.predictor;
  const Extents ext = Extents::d2(24, 20);
  const Compressor comp(cfg);
  const auto written = [&](FieldView field) {
    const auto bytes = comp.compress(field, ext).bytes;
    return one_lane ? test::one_lane_archive(bytes) : bytes;
  };

  const std::string stem =
      std::string(gc.predictor_name) + "__" + gc.workflow_name;
  EXPECT_EQ(written(wave_f32(ext.count())), golden(stem + "__f32.szp"));
  EXPECT_EQ(written(wave_f64(ext.count())), golden(stem + "__f64.szp"));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, GoldenArchive,
    ::testing::Values(
        GoldenCase{"lorenzo", PredictorKind::kLorenzo, "huffman", Workflow::kHuffman},
        GoldenCase{"lorenzo", PredictorKind::kLorenzo, "rle", Workflow::kRle},
        GoldenCase{"lorenzo", PredictorKind::kLorenzo, "rlevle", Workflow::kRleVle},
        GoldenCase{"lorenzo", PredictorKind::kLorenzo, "rans", Workflow::kRansOneLane},
        GoldenCase{"lorenzo", PredictorKind::kLorenzo, "rans8", Workflow::kRans},
        GoldenCase{"lorenzo", PredictorKind::kLorenzo, "lz77", Workflow::kLz77},
        GoldenCase{"lorenzo", PredictorKind::kLorenzo, "lzh", Workflow::kLzh},
        GoldenCase{"lorenzo", PredictorKind::kLorenzo, "lzr", Workflow::kLzr},
        GoldenCase{"regression", PredictorKind::kRegression, "huffman", Workflow::kHuffman},
        GoldenCase{"regression", PredictorKind::kRegression, "rle", Workflow::kRle},
        GoldenCase{"regression", PredictorKind::kRegression, "rlevle", Workflow::kRleVle},
        GoldenCase{"regression", PredictorKind::kRegression, "rans", Workflow::kRansOneLane},
        GoldenCase{"regression", PredictorKind::kRegression, "rans8", Workflow::kRans},
        GoldenCase{"interp", PredictorKind::kInterpolation, "huffman", Workflow::kHuffman},
        GoldenCase{"interp", PredictorKind::kInterpolation, "rle", Workflow::kRle},
        GoldenCase{"interp", PredictorKind::kInterpolation, "rlevle", Workflow::kRleVle},
        GoldenCase{"interp", PredictorKind::kInterpolation, "rans", Workflow::kRansOneLane},
        GoldenCase{"interp", PredictorKind::kInterpolation, "rans8", Workflow::kRans}),
    [](const auto& info) {
      return std::string(info.param.predictor_name) + "_" + info.param.workflow_name;
    });

TEST(GoldenArchive, StreamingContainerBitIdentical) {
  StreamingConfig scfg;
  scfg.base.eb = ErrorBound::absolute(1e-3);
  scfg.max_slab_elems = 512;
  const Extents ext = Extents::d1(2048);
  const auto c = StreamingCompressor(scfg).compress(wave_f32(ext.count()), ext);
  EXPECT_EQ(c.bytes, golden("streaming__auto__f32.szpc"));
}

// --- Relative-bound containers -------------------------------------------------
//
// A relative bound resolves against the whole field's range, and each slab
// then tightens it by a margin of its own: max(eb·1e-6, max|slab|·ulp).  So
// a field whose slabs sit decades apart in magnitude stores a different
// kernel bound in each slab's header.  (In float64 the eb·1e-6 term always
// wins once the exactness check passes, so there only the resolved bound
// itself is pinned.)

/// 8 planes of 24x40: four two-plane slabs, slab k around 10^k.
template <typename T>
std::vector<T> decades_field(const Extents& ext) {
  std::vector<T> v(ext.count());
  for (std::size_t z = 0; z < ext.nz; ++z) {
    const double scale = std::pow(10.0, static_cast<double>(z / 2));
    for (std::size_t y = 0; y < ext.ny; ++y) {
      for (std::size_t x = 0; x < ext.nx; ++x) {
        const auto fx = static_cast<double>(x), fy = static_cast<double>(y);
        v[ext.index(z, y, x)] = static_cast<T>(
            scale * (1.5 + std::sin(0.3 * fx) * std::cos(0.2 * fy) + 0.05 * static_cast<double>(z)));
      }
    }
  }
  return v;
}

TEST(GoldenArchive, RelativeBoundContainersBitIdentical) {
  const Extents ext = Extents::d3(8, 24, 40);
  StreamingConfig scfg;
  scfg.base.eb = ErrorBound::relative(1e-3);
  scfg.max_slab_elems = 2 * ext.ny * ext.nx;
  scfg.memory_budget = std::size_t{256} << 10;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "szp_golden_relative_bound";
  std::filesystem::create_directories(dir);
  const auto check = [&](FieldView field, const char* dtype) {
    SCOPED_TRACE(dtype);
    const auto want = golden(std::string("streaming__rel__") + dtype + ".szpc");
    for (const std::size_t workers : {1u, 4u}) {
      StreamingConfig cfg = scfg;
      cfg.workers = workers;
      const auto c = StreamingCompressor(cfg).compress(field, ext);
      EXPECT_EQ(c.stats.slabs.size(), 4u);
      EXPECT_EQ(c.bytes, want) << workers << " workers";
    }
    io::write_file(dir / "field.raw", field.bytes());
    for (const bool mmap : {false, true}) {
      StreamingConfig cfg = scfg;
      cfg.use_mmap = mmap;
      (void)StreamingCompressor(cfg).compress_file(dir / "field.raw", dir / "field.szpc", ext,
                                                   field.dtype());
      EXPECT_EQ(io::read_file(dir / "field.szpc"), want) << "mmap " << mmap;
    }
  };
  check(decades_field<float>(ext), "f32");
  check(decades_field<double>(ext), "f64");
  std::filesystem::remove_all(dir);
}

// --- Multi-block outlier streams ---------------------------------------------
//
// Every axis of these fields spans several Lorenzo blocks plus a clamped
// edge block, and about one element in ten falls outside the 64-code
// quantizer's radius, so the outlier section interleaves the outliers of
// every block of a block row in index order.

/// A smooth wave in every axis under uniform noise of amplitude `amp`.
template <typename T>
std::vector<T> rough_field(const Extents& ext, double amp) {
  std::vector<T> v(ext.count());
  std::uint32_t s = 12345;
  for (std::size_t z = 0; z < ext.nz; ++z) {
    for (std::size_t y = 0; y < ext.ny; ++y) {
      for (std::size_t x = 0; x < ext.nx; ++x) {
        s = s * 1664525u + 1013904223u;
        const double u = static_cast<double>(s >> 8) / static_cast<double>(1u << 24);
        const auto fx = static_cast<double>(x), fy = static_cast<double>(y);
        const auto fz = static_cast<double>(z);
        v[ext.index(z, y, x)] = static_cast<T>(std::sin(0.05 * fx) + 0.5 * std::cos(0.07 * fy) +
                                               0.3 * std::sin(0.09 * fz) + amp * (u - 0.5));
      }
    }
  }
  return v;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

struct OutlierGolden {
  const char* stem;
  Extents ext;
  double amp;
  std::uint64_t decoded_f32;  ///< FNV-1a of the decoded field, pinned at the first build
  std::uint64_t decoded_f64;
};

const OutlierGolden kOutlierGoldens[] = {
    {"outliers__1d", Extents::d1(16387), 0.045,
     0x4c336c77a5122cc6ull, 0xa0164017f2754a08ull},
    {"outliers__2d", Extents::d2(21, 1027), 0.065,
     0x827e3274ff64ef03ull, 0x4b2d2476e6d5bb1bull},
    {"outliers__3d", Extents::d3(10, 11, 515), 0.047,
     0xf55acc53c3630e50ull, 0x44914f7d6e9d67d2ull},
};

CompressConfig outlier_config(std::uint32_t capacity) {
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  cfg.quant.capacity = capacity;
  cfg.workflow = Workflow::kHuffman;
  return cfg;
}

TEST(GoldenArchive, MultiBlockOutlierStreamsBitIdentical) {
  const Compressor comp(outlier_config(64));
  for (const OutlierGolden& g : kOutlierGoldens) {
    const auto check = [&](FieldView field, const char* dtype, std::uint64_t decoded) {
      SCOPED_TRACE(std::string(g.stem) + " " + dtype);
      const auto c = comp.compress(field, g.ext);
      const double frac =
          static_cast<double>(c.stats.outlier_count) / static_cast<double>(g.ext.count());
      EXPECT_GT(frac, 0.05);
      EXPECT_LT(frac, 0.15);
      EXPECT_EQ(c.bytes, golden(std::string(g.stem) + "__" + dtype + ".szp"));
      EXPECT_EQ(fnv1a(Compressor::decompress(c.bytes).bytes()), decoded);
    };
    check(rough_field<float>(g.ext, g.amp), "f32", g.decoded_f32);
    check(rough_field<double>(g.ext, g.amp), "f64", g.decoded_f64);
  }
}

// --- The modeled clock of the Lorenzo path ------------------------------------
//
// Every cost field the Lorenzo-path stages report, pinned as literals: the
// modeled V100/A100 figures derive from nothing else.

std::string cost_fields(const sim::KernelCost& c) {
  char buf[256];
  std::snprintf(buf, sizeof buf, " br=%llu bw=%llu fl=%llu la=%d pi=%llu pat=%d cf=%a",
                static_cast<unsigned long long>(c.bytes_read),
                static_cast<unsigned long long>(c.bytes_written),
                static_cast<unsigned long long>(c.flops), c.launches,
                static_cast<unsigned long long>(c.parallel_items), static_cast<int>(c.pattern),
                c.custom_factor);
  return buf;
}

std::string cost_row(const std::string& label, const sim::PipelineReport& report,
                     const char* stage) {
  const sim::StageReport* s = report.find(stage);
  if (s == nullptr) return label + " " + stage + " missing";
  return label + " " + stage + cost_fields(s->cost);
}

std::vector<std::string> lorenzo_cost_rows() {
  std::vector<std::string> rows;
  const auto add = [&](const std::string& label, const sim::PipelineReport& compress,
                       const sim::PipelineReport& decompress) {
    for (const char* stage : {"lorenzo_construct", "gather_outlier"}) {
      rows.push_back(cost_row(label, compress, stage));
    }
    for (const char* stage : {"scatter_outlier", "lorenzo_reconstruct"}) {
      rows.push_back(cost_row(label, decompress, stage));
    }
  };
  for (const OutlierGolden& g : kOutlierGoldens) {
    // Capacity 64 leaves about one element in ten an outlier; at 65536 the
    // same field has none.
    for (const std::uint32_t capacity : {64u, 65536u}) {
      const std::string field = std::string(g.stem) + " cap" + std::to_string(capacity);
      const Compressor comp(outlier_config(capacity));
      const auto ours = [&](FieldView data, const char* dtype) {
        const auto c = comp.compress(data, g.ext);
        EXPECT_EQ(c.stats.outlier_count == 0, capacity == 65536u) << field;
        for (const auto variant :
             {ReconstructVariant::kOptimizedPartialSum, ReconstructVariant::kNaivePartialSum}) {
          const auto d = Compressor::decompress(c.bytes, ReconstructConfig{variant});
          add(field + " " + dtype + " v" + std::to_string(static_cast<int>(variant)),
              c.stats.pipeline, d.pipeline);
        }
      };
      ours(rough_field<float>(g.ext, g.amp), "f32");
      ours(rough_field<double>(g.ext, g.amp), "f64");

      baseline::CuszConfig bcfg;
      bcfg.eb = ErrorBound::absolute(1e-3);
      bcfg.quant.capacity = capacity;
      const auto data = rough_field<float>(g.ext, g.amp);
      const auto c = baseline::CuszCompressor(bcfg).compress(data, g.ext);
      add(field + " cusz", c.stats.pipeline,
          baseline::CuszCompressor::decompress(c.bytes).pipeline);
    }
  }
  return rows;
}

TEST(ModeledClock, LorenzoPathCostsArePinned) {
  const char* const kWant[] = {
      "outliers__1d cap64 f32 v2 lorenzo_construct br=65548 bw=98322 fl=65548 la=1 pi=16387 pat=0 cf=0x1.b333333333333p-1",
      "outliers__1d cap64 f32 v2 gather_outlier br=131112 bw=20768 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "outliers__1d cap64 f32 v2 scatter_outlier br=60454 bw=72468 fl=18117 la=2 pi=16387 pat=0 cf=0x0p+0",
      "outliers__1d cap64 f32 v2 lorenzo_reconstruct br=65548 bw=131096 fl=65548 la=1 pi=16387 pat=0 cf=0x1.6666666666666p-1",
      "outliers__1d cap64 f32 v1 lorenzo_construct br=65548 bw=98322 fl=65548 la=1 pi=16387 pat=0 cf=0x1.b333333333333p-1",
      "outliers__1d cap64 f32 v1 gather_outlier br=131112 bw=20768 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "outliers__1d cap64 f32 v1 scatter_outlier br=60454 bw=72468 fl=18117 la=2 pi=16387 pat=0 cf=0x0p+0",
      "outliers__1d cap64 f32 v1 lorenzo_reconstruct br=65548 bw=131096 fl=65548 la=1 pi=16387 pat=1 cf=0x1.1eb851eb851ecp-1",
      "outliers__1d cap64 f64 v2 lorenzo_construct br=131096 bw=98322 fl=65548 la=1 pi=16387 pat=0 cf=0x1.b333333333333p-1",
      "outliers__1d cap64 f64 v2 gather_outlier br=131112 bw=20792 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "outliers__1d cap64 f64 v2 scatter_outlier br=60486 bw=72476 fl=18119 la=2 pi=16387 pat=0 cf=0x0p+0",
      "outliers__1d cap64 f64 v2 lorenzo_reconstruct br=65548 bw=196644 fl=65548 la=1 pi=16387 pat=0 cf=0x1.6666666666666p-1",
      "outliers__1d cap64 f64 v1 lorenzo_construct br=131096 bw=98322 fl=65548 la=1 pi=16387 pat=0 cf=0x1.b333333333333p-1",
      "outliers__1d cap64 f64 v1 gather_outlier br=131112 bw=20792 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "outliers__1d cap64 f64 v1 scatter_outlier br=60486 bw=72476 fl=18119 la=2 pi=16387 pat=0 cf=0x0p+0",
      "outliers__1d cap64 f64 v1 lorenzo_reconstruct br=65548 bw=196644 fl=65548 la=1 pi=16387 pat=1 cf=0x1.1eb851eb851ecp-1",
      "outliers__1d cap64 cusz lorenzo_construct br=65548 bw=98322 fl=65548 la=1 pi=16387 pat=1 cf=0x1.28f5c28f5c28fp-1",
      "outliers__1d cap64 cusz gather_outlier br=65548 bw=20748 fl=16387 la=3 pi=16387 pat=3 cf=0x0p+0",
      "outliers__1d cap64 cusz scatter_outlier br=20748 bw=6916 fl=1729 la=1 pi=1729 pat=3 cf=0x0p+0",
      "outliers__1d cap64 cusz lorenzo_reconstruct br=98322 bw=65548 fl=98322 la=1 pi=65 pat=2 cf=0x1.2f1a9fbe76c8bp-5",
      "outliers__1d cap65536 f32 v2 lorenzo_construct br=65548 bw=98322 fl=65548 la=1 pi=16387 pat=0 cf=0x1.b333333333333p-1",
      "outliers__1d cap65536 f32 v2 gather_outlier br=131112 bw=8 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "outliers__1d cap65536 f32 v2 scatter_outlier br=32774 bw=65548 fl=16387 la=2 pi=16387 pat=0 cf=0x0p+0",
      "outliers__1d cap65536 f32 v2 lorenzo_reconstruct br=65548 bw=131096 fl=65548 la=1 pi=16387 pat=0 cf=0x1.6666666666666p-1",
      "outliers__1d cap65536 f32 v1 lorenzo_construct br=65548 bw=98322 fl=65548 la=1 pi=16387 pat=0 cf=0x1.b333333333333p-1",
      "outliers__1d cap65536 f32 v1 gather_outlier br=131112 bw=8 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "outliers__1d cap65536 f32 v1 scatter_outlier br=32774 bw=65548 fl=16387 la=2 pi=16387 pat=0 cf=0x0p+0",
      "outliers__1d cap65536 f32 v1 lorenzo_reconstruct br=65548 bw=131096 fl=65548 la=1 pi=16387 pat=1 cf=0x1.1eb851eb851ecp-1",
      "outliers__1d cap65536 f64 v2 lorenzo_construct br=131096 bw=98322 fl=65548 la=1 pi=16387 pat=0 cf=0x1.b333333333333p-1",
      "outliers__1d cap65536 f64 v2 gather_outlier br=131112 bw=8 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "outliers__1d cap65536 f64 v2 scatter_outlier br=32774 bw=65548 fl=16387 la=2 pi=16387 pat=0 cf=0x0p+0",
      "outliers__1d cap65536 f64 v2 lorenzo_reconstruct br=65548 bw=196644 fl=65548 la=1 pi=16387 pat=0 cf=0x1.6666666666666p-1",
      "outliers__1d cap65536 f64 v1 lorenzo_construct br=131096 bw=98322 fl=65548 la=1 pi=16387 pat=0 cf=0x1.b333333333333p-1",
      "outliers__1d cap65536 f64 v1 gather_outlier br=131112 bw=8 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "outliers__1d cap65536 f64 v1 scatter_outlier br=32774 bw=65548 fl=16387 la=2 pi=16387 pat=0 cf=0x0p+0",
      "outliers__1d cap65536 f64 v1 lorenzo_reconstruct br=65548 bw=196644 fl=65548 la=1 pi=16387 pat=1 cf=0x1.1eb851eb851ecp-1",
      "outliers__1d cap65536 cusz lorenzo_construct br=65548 bw=98322 fl=65548 la=1 pi=16387 pat=1 cf=0x1.28f5c28f5c28fp-1",
      "outliers__1d cap65536 cusz gather_outlier br=65548 bw=0 fl=16387 la=3 pi=16387 pat=3 cf=0x0p+0",
      "outliers__1d cap65536 cusz scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "outliers__1d cap65536 cusz lorenzo_reconstruct br=98322 bw=65548 fl=98322 la=1 pi=65 pat=2 cf=0x1.2f1a9fbe76c8bp-5",
      "outliers__2d cap64 f32 v2 lorenzo_construct br=86268 bw=129402 fl=129402 la=1 pi=21567 pat=0 cf=0x1.851eb851eb852p-1",
      "outliers__2d cap64 f32 v2 gather_outlier br=172552 bw=27140 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "outliers__2d cap64 f32 v2 scatter_outlier br=79310 bw=95312 fl=23828 la=2 pi=21567 pat=0 cf=0x0p+0",
      "outliers__2d cap64 f32 v2 lorenzo_reconstruct br=86268 bw=172536 fl=129402 la=2 pi=21567 pat=0 cf=0x1.23d70a3d70a3dp-1",
      "outliers__2d cap64 f32 v1 lorenzo_construct br=86268 bw=129402 fl=129402 la=1 pi=21567 pat=0 cf=0x1.851eb851eb852p-1",
      "outliers__2d cap64 f32 v1 gather_outlier br=172552 bw=27140 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "outliers__2d cap64 f32 v1 scatter_outlier br=79310 bw=95312 fl=23828 la=2 pi=21567 pat=0 cf=0x0p+0",
      "outliers__2d cap64 f32 v1 lorenzo_reconstruct br=86268 bw=172536 fl=129402 la=2 pi=21567 pat=1 cf=0x1.c28f5c28f5c29p-2",
      "outliers__2d cap64 f64 v2 lorenzo_construct br=172536 bw=129402 fl=129402 la=1 pi=21567 pat=0 cf=0x1.851eb851eb852p-1",
      "outliers__2d cap64 f64 v2 gather_outlier br=172552 bw=27116 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "outliers__2d cap64 f64 v2 scatter_outlier br=79278 bw=95304 fl=23826 la=2 pi=21567 pat=0 cf=0x0p+0",
      "outliers__2d cap64 f64 v2 lorenzo_reconstruct br=86268 bw=258804 fl=129402 la=2 pi=21567 pat=0 cf=0x1.23d70a3d70a3dp-1",
      "outliers__2d cap64 f64 v1 lorenzo_construct br=172536 bw=129402 fl=129402 la=1 pi=21567 pat=0 cf=0x1.851eb851eb852p-1",
      "outliers__2d cap64 f64 v1 gather_outlier br=172552 bw=27116 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "outliers__2d cap64 f64 v1 scatter_outlier br=79278 bw=95304 fl=23826 la=2 pi=21567 pat=0 cf=0x0p+0",
      "outliers__2d cap64 f64 v1 lorenzo_reconstruct br=86268 bw=258804 fl=129402 la=2 pi=21567 pat=1 cf=0x1.c28f5c28f5c29p-2",
      "outliers__2d cap64 cusz lorenzo_construct br=86268 bw=129402 fl=129402 la=1 pi=21567 pat=1 cf=0x1.6666666666666p-1",
      "outliers__2d cap64 cusz gather_outlier br=86268 bw=27096 fl=21567 la=3 pi=21567 pat=3 cf=0x0p+0",
      "outliers__2d cap64 cusz scatter_outlier br=27096 bw=9032 fl=2258 la=1 pi=2258 pat=3 cf=0x0p+0",
      "outliers__2d cap64 cusz lorenzo_reconstruct br=129402 bw=86268 fl=172536 la=1 pi=130 pat=2 cf=0x1.51eb851eb851fp-2",
      "outliers__2d cap65536 f32 v2 lorenzo_construct br=86268 bw=129402 fl=129402 la=1 pi=21567 pat=0 cf=0x1.851eb851eb852p-1",
      "outliers__2d cap65536 f32 v2 gather_outlier br=172552 bw=8 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "outliers__2d cap65536 f32 v2 scatter_outlier br=43134 bw=86268 fl=21567 la=2 pi=21567 pat=0 cf=0x0p+0",
      "outliers__2d cap65536 f32 v2 lorenzo_reconstruct br=86268 bw=172536 fl=129402 la=2 pi=21567 pat=0 cf=0x1.23d70a3d70a3dp-1",
      "outliers__2d cap65536 f32 v1 lorenzo_construct br=86268 bw=129402 fl=129402 la=1 pi=21567 pat=0 cf=0x1.851eb851eb852p-1",
      "outliers__2d cap65536 f32 v1 gather_outlier br=172552 bw=8 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "outliers__2d cap65536 f32 v1 scatter_outlier br=43134 bw=86268 fl=21567 la=2 pi=21567 pat=0 cf=0x0p+0",
      "outliers__2d cap65536 f32 v1 lorenzo_reconstruct br=86268 bw=172536 fl=129402 la=2 pi=21567 pat=1 cf=0x1.c28f5c28f5c29p-2",
      "outliers__2d cap65536 f64 v2 lorenzo_construct br=172536 bw=129402 fl=129402 la=1 pi=21567 pat=0 cf=0x1.851eb851eb852p-1",
      "outliers__2d cap65536 f64 v2 gather_outlier br=172552 bw=8 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "outliers__2d cap65536 f64 v2 scatter_outlier br=43134 bw=86268 fl=21567 la=2 pi=21567 pat=0 cf=0x0p+0",
      "outliers__2d cap65536 f64 v2 lorenzo_reconstruct br=86268 bw=258804 fl=129402 la=2 pi=21567 pat=0 cf=0x1.23d70a3d70a3dp-1",
      "outliers__2d cap65536 f64 v1 lorenzo_construct br=172536 bw=129402 fl=129402 la=1 pi=21567 pat=0 cf=0x1.851eb851eb852p-1",
      "outliers__2d cap65536 f64 v1 gather_outlier br=172552 bw=8 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "outliers__2d cap65536 f64 v1 scatter_outlier br=43134 bw=86268 fl=21567 la=2 pi=21567 pat=0 cf=0x0p+0",
      "outliers__2d cap65536 f64 v1 lorenzo_reconstruct br=86268 bw=258804 fl=129402 la=2 pi=21567 pat=1 cf=0x1.c28f5c28f5c29p-2",
      "outliers__2d cap65536 cusz lorenzo_construct br=86268 bw=129402 fl=129402 la=1 pi=21567 pat=1 cf=0x1.6666666666666p-1",
      "outliers__2d cap65536 cusz gather_outlier br=86268 bw=0 fl=21567 la=3 pi=21567 pat=3 cf=0x0p+0",
      "outliers__2d cap65536 cusz scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "outliers__2d cap65536 cusz lorenzo_reconstruct br=129402 bw=86268 fl=172536 la=1 pi=130 pat=2 cf=0x1.51eb851eb851fp-2",
      "outliers__3d cap64 f32 v2 lorenzo_construct br=226600 bw=339900 fl=566500 la=1 pi=56650 pat=0 cf=0x1.a3d70a3d70a3dp-1",
      "outliers__3d cap64 f32 v2 gather_outlier br=453216 bw=48776 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "outliers__3d cap64 f32 v2 scatter_outlier br=178324 bw=242856 fl=60714 la=2 pi=56650 pat=0 cf=0x0p+0",
      "outliers__3d cap64 f32 v2 lorenzo_reconstruct br=226600 bw=453200 fl=453200 la=3 pi=56650 pat=0 cf=0x1.0f5c28f5c28f6p-1",
      "outliers__3d cap64 f32 v1 lorenzo_construct br=226600 bw=339900 fl=566500 la=1 pi=56650 pat=0 cf=0x1.a3d70a3d70a3dp-1",
      "outliers__3d cap64 f32 v1 gather_outlier br=453216 bw=48776 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "outliers__3d cap64 f32 v1 scatter_outlier br=178324 bw=242856 fl=60714 la=2 pi=56650 pat=0 cf=0x0p+0",
      "outliers__3d cap64 f32 v1 lorenzo_reconstruct br=226600 bw=453200 fl=453200 la=3 pi=56650 pat=1 cf=0x1.8f5c28f5c28f6p-2",
      "outliers__3d cap64 f64 v2 lorenzo_construct br=453200 bw=339900 fl=566500 la=1 pi=56650 pat=0 cf=0x1.a3d70a3d70a3dp-1",
      "outliers__3d cap64 f64 v2 gather_outlier br=453216 bw=48728 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "outliers__3d cap64 f64 v2 scatter_outlier br=178260 bw=242840 fl=60710 la=2 pi=56650 pat=0 cf=0x0p+0",
      "outliers__3d cap64 f64 v2 lorenzo_reconstruct br=226600 bw=679800 fl=453200 la=3 pi=56650 pat=0 cf=0x1.0f5c28f5c28f6p-1",
      "outliers__3d cap64 f64 v1 lorenzo_construct br=453200 bw=339900 fl=566500 la=1 pi=56650 pat=0 cf=0x1.a3d70a3d70a3dp-1",
      "outliers__3d cap64 f64 v1 gather_outlier br=453216 bw=48728 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "outliers__3d cap64 f64 v1 scatter_outlier br=178260 bw=242840 fl=60710 la=2 pi=56650 pat=0 cf=0x0p+0",
      "outliers__3d cap64 f64 v1 lorenzo_reconstruct br=226600 bw=679800 fl=453200 la=3 pi=56650 pat=1 cf=0x1.8f5c28f5c28f6p-2",
      "outliers__3d cap64 cusz lorenzo_construct br=226600 bw=339900 fl=566500 la=1 pi=56650 pat=1 cf=0x1.1eb851eb851ecp-1",
      "outliers__3d cap64 cusz gather_outlier br=226600 bw=48732 fl=56650 la=3 pi=56650 pat=3 cf=0x0p+0",
      "outliers__3d cap64 cusz scatter_outlier br=48732 bw=16244 fl=4061 la=1 pi=4061 pat=3 cf=0x0p+0",
      "outliers__3d cap64 cusz lorenzo_reconstruct br=339900 bw=226600 fl=566500 la=1 pi=260 pat=2 cf=0x1.0e5604189374cp-4",
      "outliers__3d cap65536 f32 v2 lorenzo_construct br=226600 bw=339900 fl=566500 la=1 pi=56650 pat=0 cf=0x1.a3d70a3d70a3dp-1",
      "outliers__3d cap65536 f32 v2 gather_outlier br=453216 bw=8 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "outliers__3d cap65536 f32 v2 scatter_outlier br=113300 bw=226600 fl=56650 la=2 pi=56650 pat=0 cf=0x0p+0",
      "outliers__3d cap65536 f32 v2 lorenzo_reconstruct br=226600 bw=453200 fl=453200 la=3 pi=56650 pat=0 cf=0x1.0f5c28f5c28f6p-1",
      "outliers__3d cap65536 f32 v1 lorenzo_construct br=226600 bw=339900 fl=566500 la=1 pi=56650 pat=0 cf=0x1.a3d70a3d70a3dp-1",
      "outliers__3d cap65536 f32 v1 gather_outlier br=453216 bw=8 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "outliers__3d cap65536 f32 v1 scatter_outlier br=113300 bw=226600 fl=56650 la=2 pi=56650 pat=0 cf=0x0p+0",
      "outliers__3d cap65536 f32 v1 lorenzo_reconstruct br=226600 bw=453200 fl=453200 la=3 pi=56650 pat=1 cf=0x1.8f5c28f5c28f6p-2",
      "outliers__3d cap65536 f64 v2 lorenzo_construct br=453200 bw=339900 fl=566500 la=1 pi=56650 pat=0 cf=0x1.a3d70a3d70a3dp-1",
      "outliers__3d cap65536 f64 v2 gather_outlier br=453216 bw=8 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "outliers__3d cap65536 f64 v2 scatter_outlier br=113300 bw=226600 fl=56650 la=2 pi=56650 pat=0 cf=0x0p+0",
      "outliers__3d cap65536 f64 v2 lorenzo_reconstruct br=226600 bw=679800 fl=453200 la=3 pi=56650 pat=0 cf=0x1.0f5c28f5c28f6p-1",
      "outliers__3d cap65536 f64 v1 lorenzo_construct br=453200 bw=339900 fl=566500 la=1 pi=56650 pat=0 cf=0x1.a3d70a3d70a3dp-1",
      "outliers__3d cap65536 f64 v1 gather_outlier br=453216 bw=8 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "outliers__3d cap65536 f64 v1 scatter_outlier br=113300 bw=226600 fl=56650 la=2 pi=56650 pat=0 cf=0x0p+0",
      "outliers__3d cap65536 f64 v1 lorenzo_reconstruct br=226600 bw=679800 fl=453200 la=3 pi=56650 pat=1 cf=0x1.8f5c28f5c28f6p-2",
      "outliers__3d cap65536 cusz lorenzo_construct br=226600 bw=339900 fl=566500 la=1 pi=56650 pat=1 cf=0x1.1eb851eb851ecp-1",
      "outliers__3d cap65536 cusz gather_outlier br=226600 bw=0 fl=56650 la=3 pi=56650 pat=3 cf=0x0p+0",
      "outliers__3d cap65536 cusz scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "outliers__3d cap65536 cusz lorenzo_reconstruct br=339900 bw=226600 fl=566500 la=1 pi=260 pat=2 cf=0x1.0e5604189374cp-4",
  };
  const auto rows = lorenzo_cost_rows();
  ASSERT_EQ(rows.size(), std::size(kWant));
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], kWant[i]) << "row " << i;
}

// --- The modeled clock of the Huffman decode -----------------------------------
//
// Every cost field huffman_decode_into() returns, for plain and gap-array
// streams whose last chunk is short, and the decode stage of an rle+vle
// archive, whose two run streams decode through it.

std::vector<std::string> huffman_decode_cost_rows() {
  std::vector<std::string> rows;
  for (const std::size_t chunks : {1, 5, 17}) {
    const std::size_t n = 4096 * (chunks - 1) + 3000;
    std::vector<quant_t> syms(n);
    std::uint32_t s = 777;
    for (auto& q : syms) {
      s = s * 1664525u + 1013904223u;
      const std::uint32_t u = s >> 24;
      q = static_cast<quant_t>(512 + ((u * u) >> 11));  // 512..543, most near 512
    }
    std::vector<std::uint64_t> freq(1024, 0);
    for (const quant_t q : syms) ++freq[q];
    const auto book = HuffmanCodebook::build(freq);
    for (const std::uint32_t gap : {0u, 256u}) {
      const auto enc = huffman_encode(syms, book, 4096, HuffmanEncVariant::kOptimized, gap);
      sim::device_vector<quant_t> out;
      const auto cost = huffman_decode_into(enc, enc.payload, book, n, out);
      rows.push_back("chunks=" + std::to_string(chunks) + " gap=" + std::to_string(gap) +
                     cost_fields(cost));
    }
  }
  CompressConfig cfg = outlier_config(64);
  cfg.workflow = Workflow::kRleVle;
  const Extents ext = Extents::d1(40000);
  const auto c = Compressor(cfg).compress(rough_field<float>(ext, 0.045), ext);
  rows.push_back(cost_row("rle+vle", Compressor::decompress(c.bytes).pipeline, "rle_vle_decode"));
  return rows;
}

TEST(ModeledClock, HuffmanDecodeCostsArePinned) {
  const char* const kWant[] = {
      "chunks=1 gap=0 br=10987 bw=6000 fl=1350000 la=1 pi=3000 pat=0 cf=0x0p+0",
      "chunks=1 gap=256 br=37616 bw=6000 fl=450000 la=1 pi=3000 pat=0 cf=0x0p+0",
      "chunks=5 gap=0 br=20606 bw=38768 fl=8722800 la=1 pi=19384 pat=0 cf=0x0p+0",
      "chunks=5 gap=256 br=191776 bw=38768 fl=2907600 la=1 pi=19384 pat=0 cf=0x0p+0",
      "chunks=17 gap=0 br=49488 bw=137072 fl=30841200 la=1 pi=68536 pat=0 cf=0x0p+0",
      "chunks=17 gap=256 br=654656 bw=137072 fl=10280400 la=1 pi=68536 pat=0 cf=0x0p+0",
      "rle+vle rle_vle_decode br=1324762 bw=235760 fl=35086000 la=3 pi=38940 pat=0 cf=0x0p+0",
  };
  const auto rows = huffman_decode_cost_rows();
  ASSERT_EQ(rows.size(), std::size(kWant));
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], kWant[i]) << "row " << i;
}

// --- The modeled clock of the Huffman encode -----------------------------------
//
// Every cost field of the codebook and encode stages a Huffman archive
// reports, for plain and gap-array streams whose last chunk is short.

std::vector<std::string> huffman_encode_cost_rows() {
  std::vector<std::string> rows;
  for (const std::size_t chunks : {1, 5, 17}) {
    const Extents ext = Extents::d1(4096 * (chunks - 1) + 3000);
    const auto data = rough_field<float>(ext, 0.045);
    for (const std::uint32_t gap : {0u, 256u}) {
      CompressConfig cfg = outlier_config(1024);
      cfg.huffman_gap_stride = gap;
      const auto c = Compressor(cfg).compress(data, ext);
      const std::string label =
          "chunks=" + std::to_string(chunks) + " gap=" + std::to_string(gap);
      for (const char* stage : {"huffman_book", "huffman_encode"}) {
        rows.push_back(cost_row(label, c.stats.pipeline, stage));
      }
    }
  }
  return rows;
}

TEST(ModeledClock, HuffmanEncodeCostsArePinned) {
  const char* const kWant[] = {
      "chunks=1 gap=0 huffman_book br=8192 bw=9216 fl=65536 la=40 pi=1 pat=2 cf=0x0p+0",
      "chunks=1 gap=0 huffman_encode br=21256 bw=2388 fl=24000 la=4 pi=3000 pat=3 cf=0x1.70a3d70a3d70ap-4",
      "chunks=1 gap=256 huffman_book br=8192 bw=9216 fl=65536 la=40 pi=1 pat=2 cf=0x0p+0",
      "chunks=1 gap=256 huffman_encode br=21256 bw=2452 fl=24000 la=4 pi=3000 pat=3 cf=0x1.70a3d70a3d70ap-4",
      "chunks=5 gap=0 huffman_book br=8192 bw=9216 fl=65536 la=40 pi=1 pat=2 cf=0x0p+0",
      "chunks=5 gap=0 huffman_encode br=86920 bw=15402 fl=155072 la=4 pi=19384 pat=3 cf=0x1.70a3d70a3d70ap-4",
      "chunks=5 gap=256 huffman_book br=8192 bw=9216 fl=65536 la=40 pi=1 pat=2 cf=0x0p+0",
      "chunks=5 gap=256 huffman_encode br=86920 bw=15722 fl=155072 la=4 pi=19384 pat=3 cf=0x1.70a3d70a3d70ap-4",
      "chunks=17 gap=0 huffman_book br=8192 bw=9216 fl=65536 la=40 pi=1 pat=2 cf=0x0p+0",
      "chunks=17 gap=0 huffman_encode br=283912 bw=54444 fl=548288 la=4 pi=68536 pat=3 cf=0x1.70a3d70a3d70ap-4",
      "chunks=17 gap=256 huffman_book br=8192 bw=9216 fl=65536 la=40 pi=1 pat=2 cf=0x0p+0",
      "chunks=17 gap=256 huffman_encode br=283912 bw=55532 fl=548288 la=4 pi=68536 pat=3 cf=0x1.70a3d70a3d70ap-4",
  };
  const auto rows = huffman_encode_cost_rows();
  ASSERT_EQ(rows.size(), std::size(kWant));
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], kWant[i]) << "row " << i;
}

// --- The modeled clock of the histogram ----------------------------------------
//
// Every cost field of the compressor's histogram stage over 1, 5 and 17
// tiles of 2^16 codes at three capacities, and the rle_vle encode stage,
// whose two run streams are binned by the same kernel.

std::vector<std::string> histogram_cost_rows() {
  std::vector<std::string> rows;
  for (const std::size_t tiles : {1, 5, 17}) {
    const Extents ext = Extents::d1(65536 * (tiles - 1) + 3000);
    const auto data = rough_field<float>(ext, 0.045);
    for (const std::uint32_t capacity : {64u, 1024u, 65536u}) {
      const auto c = Compressor(outlier_config(capacity)).compress(data, ext);
      rows.push_back(cost_row("tiles=" + std::to_string(tiles) + " cap=" +
                                  std::to_string(capacity),
                              c.stats.pipeline, "histogram"));
    }
  }
  CompressConfig cfg = outlier_config(64);
  cfg.workflow = Workflow::kRleVle;
  const Extents ext = Extents::d1(40000);
  const auto c = Compressor(cfg).compress(rough_field<float>(ext, 0.045), ext);
  rows.push_back(cost_row("rle+vle", c.stats.pipeline, "rle_vle"));
  return rows;
}

TEST(ModeledClock, HistogramCostsArePinned) {
  const char* const kWant[] = {
      "tiles=1 cap=64 histogram br=7024 bw=1024 fl=3000 la=2 pi=3000 pat=4 cf=0x0p+0",
      "tiles=1 cap=1024 histogram br=22384 bw=16384 fl=3000 la=2 pi=3000 pat=4 cf=0x0p+0",
      "tiles=1 cap=65536 histogram br=1054576 bw=1048576 fl=3000 la=2 pi=3000 pat=4 cf=0x0p+0",
      "tiles=5 cap=64 histogram br=540016 bw=3072 fl=265144 la=2 pi=265144 pat=4 cf=0x0p+0",
      "tiles=5 cap=1024 histogram br=612208 bw=49152 fl=265144 la=2 pi=265144 pat=4 cf=0x0p+0",
      "tiles=5 cap=65536 histogram br=5773168 bw=3145728 fl=265144 la=2 pi=265144 pat=4 cf=0x0p+0",
      "tiles=17 cap=64 histogram br=2143600 bw=9216 fl=1051576 la=2 pi=1051576 pat=4 cf=0x0p+0",
      "tiles=17 cap=1024 histogram br=2381680 bw=147456 fl=1051576 la=2 pi=1051576 pat=4 cf=0x0p+0",
      "tiles=17 cap=65536 histogram br=19928944 bw=9437184 fl=1051576 la=2 pi=1051576 pat=4 cf=0x0p+0",
      "rle+vle rle_vle br=902576 bw=33458 fl=623040 la=8 pi=38940 pat=3 cf=0x1.70a3d70a3d70ap-4",
  };
  const auto rows = histogram_cost_rows();
  ASSERT_EQ(rows.size(), std::size(kWant));
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], kWant[i]) << "row " << i;
}

// --- The modeled clock of the RLE, ZFP and LZ stages ---------------------------
//
// Every cost field of rle_encode and rle_decode (empty, one-tile, multi-tile
// and one long run that splits at the u16 cap), of ZFP compress and
// decompress (ragged 1-D, 2-D and 3-D block grids at two rates), and of the
// six LZ stages, driven through the codec table on empty and multi-tile
// code streams.

/// Quant codes around the radius: runs of the zero residual broken by
/// short excursions, so both RLE and the LZ parse find structure.
std::vector<quant_t> run_codes(std::size_t n) {
  std::vector<quant_t> q(n);
  std::uint32_t s = 4242;
  for (auto& v : q) {
    s = s * 1664525u + 1013904223u;
    const std::uint32_t u = s >> 24;
    v = static_cast<quant_t>(u < 200 ? 512 : 504 + (u & 15));
  }
  return q;
}

/// A section sink over a vector of its own, for driving a codec directly.
class VectorSink final : public pipeline::SectionSink {
 public:
  ByteWriter& open(std::size_t section_bytes) override {
    bytes.assign(section_bytes, 0);
    writer.emplace(std::span<std::uint8_t>(bytes));
    return *writer;
  }
  std::vector<std::uint8_t> bytes;
  std::optional<ByteWriter> writer;
};

std::vector<std::string> codec_stage_cost_rows() {
  std::vector<std::string> rows;
  const std::size_t kRleSizes[] = {0, 3000, 65536 * 2 + 3000};
  for (const std::size_t n : kRleSizes) {
    const auto rle = rle_encode(run_codes(n));
    const std::string label = "n=" + std::to_string(n);
    rows.push_back(label + " rle_encode" + cost_fields(rle.cost));
    rows.push_back(label + " rle_decode" + cost_fields(rle_decode(rle).cost));
  }
  const auto flat = rle_encode(std::vector<quant_t>(65536 * 2 + 3000, 512));
  rows.push_back("flat rle_encode" + cost_fields(flat.cost));
  rows.push_back("flat rle_decode" + cost_fields(rle_decode(flat).cost));

  for (const Extents& ext : {Extents::d1(1001), Extents::d2(37, 45), Extents::d3(9, 10, 11)}) {
    const auto data = rough_field<float>(ext, 0.1);
    for (const double rate : {8.0, 3.5}) {
      const auto c = zfp::zfp_compress(data, ext, zfp::ZfpConfig{rate});
      const std::string label =
          "rank=" + std::to_string(ext.rank) + " rate=" + std::to_string(rate);
      rows.push_back(label + " zfp_compress" + cost_fields(c.cost));
      rows.push_back(label + " zfp_decompress" + cost_fields(zfp::zfp_decompress(c.bytes).cost));
    }
  }

  const CompressConfig cfg;
  for (const Workflow wf : {Workflow::kLz77, Workflow::kLzh, Workflow::kLzr}) {
    const pipeline::LosslessCodec& codec = pipeline::codec(wf);
    for (const std::size_t n : {std::size_t{0}, std::size_t{16384 * 2 + 3000}}) {
      const auto quant = run_codes(n);
      Workspace ws;
      VectorSink sink;
      sim::PipelineReport report;
      codec.encode(quant, pipeline::EncodeContext{cfg, {}, n * 4}, ws, sink, report);
      ByteReader r(sink.bytes);
      sim::device_vector<quant_t> out;
      codec.decode(r, pipeline::DecodeContext{n, n * 4}, out, report);
      EXPECT_TRUE(std::equal(out.begin(), out.end(), quant.begin(), quant.end())) << codec.name();
      for (const sim::StageReport& s : report.stages) {
        rows.push_back("n=" + std::to_string(n) + " " + s.name + cost_fields(s.cost));
      }
    }
  }
  return rows;
}

TEST(ModeledClock, CodecStageCostsArePinned) {
  const char* const kWant[] = {
      "n=0 rle_encode br=0 bw=0 fl=0 la=1 pi=1 pat=0 cf=0x0p+0",
      "n=0 rle_decode br=0 bw=0 fl=0 la=1 pi=1 pat=0 cf=0x0p+0",
      "n=3000 rle_encode br=6000 bw=34496 fl=6000 la=1 pi=3000 pat=0 cf=0x1.47ae147ae147bp-4",
      "n=3000 rle_decode br=20196 bw=6000 fl=3000 la=1 pi=1122 pat=0 cf=0x0p+0",
      "n=134072 rle_encode br=268144 bw=1534540 fl=268144 la=1 pi=134072 pat=0 cf=0x1.47ae147ae147bp-4",
      "n=134072 rle_decode br=872082 bw=268144 fl=134072 la=1 pi=48449 pat=0 cf=0x0p+0",
      "flat rle_encode br=268144 bw=1340756 fl=268144 la=1 pi=134072 pat=0 cf=0x1.47ae147ae147bp-4",
      "flat rle_decode br=54 bw=268144 fl=134072 la=1 pi=3 pat=0 cf=0x0p+0",
      "rank=1 rate=8.000000 zfp_compress br=4004 bw=1004 fl=12012 la=1 pi=1001 pat=0 cf=0x1.3333333333333p-1",
      "rank=1 rate=8.000000 zfp_decompress br=1004 bw=4004 fl=12012 la=1 pi=1001 pat=0 cf=0x1.3333333333333p-1",
      "rank=1 rate=3.500000 zfp_compress br=4004 bw=753 fl=12012 la=1 pi=1001 pat=0 cf=0x1.3333333333333p-1",
      "rank=1 rate=3.500000 zfp_decompress br=753 bw=4004 fl=12012 la=1 pi=1001 pat=0 cf=0x1.3333333333333p-1",
      "rank=2 rate=8.000000 zfp_compress br=6660 bw=1920 fl=19980 la=1 pi=1665 pat=0 cf=0x1.3333333333333p-1",
      "rank=2 rate=8.000000 zfp_decompress br=1920 bw=6660 fl=19980 la=1 pi=1665 pat=0 cf=0x1.3333333333333p-1",
      "rank=2 rate=3.500000 zfp_compress br=6660 bw=840 fl=19980 la=1 pi=1665 pat=0 cf=0x1.3333333333333p-1",
      "rank=2 rate=3.500000 zfp_decompress br=840 bw=6660 fl=19980 la=1 pi=1665 pat=0 cf=0x1.3333333333333p-1",
      "rank=3 rate=8.000000 zfp_compress br=3960 bw=1728 fl=11880 la=1 pi=990 pat=0 cf=0x1.3333333333333p-1",
      "rank=3 rate=8.000000 zfp_decompress br=1728 bw=3960 fl=11880 la=1 pi=990 pat=0 cf=0x1.3333333333333p-1",
      "rank=3 rate=3.500000 zfp_compress br=3960 bw=756 fl=11880 la=1 pi=990 pat=0 cf=0x1.3333333333333p-1",
      "rank=3 rate=3.500000 zfp_decompress br=756 bw=3960 fl=11880 la=1 pi=990 pat=0 cf=0x1.3333333333333p-1",
      "n=0 lz77_encode br=0 bw=0 fl=0 la=2 pi=1 pat=3 cf=0x0p+0",
      "n=0 lz77_decode br=15 bw=0 fl=0 la=2 pi=1 pat=0 cf=0x0p+0",
      "n=35768 lz77_encode br=786896 bw=95381 fl=3576800 la=2 pi=1 pat=3 cf=0x0p+0",
      "n=35768 lz77_decode br=180194 bw=143072 fl=357680 la=2 pi=1 pat=0 cf=0x0p+0",
      "n=0 lzh_encode br=0 bw=0 fl=0 la=2 pi=1 pat=3 cf=0x0p+0",
      "n=0 lzh_decode br=50 bw=0 fl=0 la=2 pi=1 pat=0 cf=0x0p+0",
      "n=35768 lzh_encode br=786896 bw=95381 fl=3576800 la=2 pi=1 pat=3 cf=0x0p+0",
      "n=35768 lzh_decode br=154767 bw=143072 fl=357680 la=2 pi=1 pat=0 cf=0x0p+0",
      "n=0 lzr_encode br=0 bw=0 fl=0 la=2 pi=1 pat=3 cf=0x0p+0",
      "n=0 lzr_decode br=68 bw=0 fl=0 la=2 pi=1 pat=0 cf=0x0p+0",
      "n=35768 lzr_encode br=786896 bw=95381 fl=3576800 la=2 pi=1 pat=3 cf=0x0p+0",
      "n=35768 lzr_decode br=154700 bw=143072 fl=357680 la=2 pi=1 pat=0 cf=0x0p+0",
  };
  const auto rows = codec_stage_cost_rows();
  ASSERT_EQ(rows.size(), std::size(kWant));
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], kWant[i]) << "row " << i;
}

// --- Regression and interpolation: bytes and modeled clock ------------------
//
// Both predictors on the multi-block outlier fields above and on a ragged
// 3-D field whose interpolation level clamps to 3, each at a noise
// amplitude that leaves 5-25% of the elements outliers.  Regression's 1-D
// chunks are 256 wide and cannot follow two periods of the wave with a
// line (at capacity 64 almost every element is an outlier), so it runs at
// capacity 1024 there.  Each archive and its decoded field are pinned as
// FNV-1a literals, and so is every cost field of the construct,
// gather_outlier, scatter_outlier and reconstruct stages.

struct SparseCase {
  const char* stem;
  PredictorKind predictor;
  Extents ext;
  double amp;
  std::uint32_t capacity;
};

const SparseCase kSparseCases[] = {
    {"regression 1d", PredictorKind::kRegression, Extents::d1(16387), 0.14, 1024},
    {"regression 2d", PredictorKind::kRegression, Extents::d2(21, 1027), 0.14, 64},
    {"regression 3d", PredictorKind::kRegression, Extents::d3(10, 11, 515), 0.14, 64},
    {"regression ragged", PredictorKind::kRegression, Extents::d3(5, 7, 13), 0.14, 64},
    {"interp 1d", PredictorKind::kInterpolation, Extents::d1(16387), 0.1, 64},
    {"interp 2d", PredictorKind::kInterpolation, Extents::d2(21, 1027), 0.1, 64},
    {"interp 3d", PredictorKind::kInterpolation, Extents::d3(10, 11, 515), 0.1, 64},
    {"interp ragged", PredictorKind::kInterpolation, Extents::d3(5, 7, 13), 0.1, 64},
};

std::string fnv_row(const std::string& label, const Compressed& c) {
  char buf[96];
  std::snprintf(buf, sizeof buf, " archive=%016llx decoded=%016llx",
                static_cast<unsigned long long>(fnv1a(c.bytes)),
                static_cast<unsigned long long>(fnv1a(Compressor::decompress(c.bytes).bytes())));
  return label + buf;
}

std::vector<std::string> sparse_path_byte_rows() {
  std::vector<std::string> rows;
  for (const SparseCase& sc : kSparseCases) {
    CompressConfig cfg = outlier_config(sc.capacity);
    cfg.predictor = sc.predictor;
    const auto add = [&](FieldView field, const char* dtype) {
      const auto c = Compressor(cfg).compress(field, sc.ext);
      const double frac =
          static_cast<double>(c.stats.outlier_count) / static_cast<double>(sc.ext.count());
      EXPECT_GT(frac, 0.05) << sc.stem << " " << dtype;
      EXPECT_LT(frac, 0.25) << sc.stem << " " << dtype;
      rows.push_back(fnv_row(std::string(sc.stem) + " " + dtype, c));
    };
    add(rough_field<float>(sc.ext, sc.amp), "f32");
    add(rough_field<double>(sc.ext, sc.amp), "f64");
  }
  // A 16-code quantizer under unit noise: almost every element an outlier.
  const Extents ext = Extents::d3(11, 19, 21);
  for (const PredictorKind predictor : {PredictorKind::kRegression, PredictorKind::kInterpolation}) {
    const char* stem =
        predictor == PredictorKind::kRegression ? "regression noisy" : "interp noisy";
    CompressConfig cfg = outlier_config(16);
    cfg.predictor = predictor;
    const auto add = [&](FieldView field, const char* dtype) {
      const auto c = Compressor(cfg).compress(field, ext);
      EXPECT_GT(c.stats.outlier_count, ext.count() * 9 / 10) << stem << " " << dtype;
      rows.push_back(fnv_row(std::string(stem) + " " + dtype, c));
    };
    add(noisy<float>(ext.count(), 7), "f32");
    add(noisy<double>(ext.count(), 7), "f64");
  }
  return rows;
}

TEST(GoldenArchive, RegressionInterpolationBytesArePinned) {
  const char* const kWant[] = {
      "regression 1d f32 archive=e6739419b62628c8 decoded=6c896fcea8d1a461",
      "regression 1d f64 archive=349fb959714e6a4e decoded=750879b33da8e642",
      "regression 2d f32 archive=53c06179b71bdde9 decoded=bedaa47273439e37",
      "regression 2d f64 archive=65a929c13ecef242 decoded=1bc94778bde277ce",
      "regression 3d f32 archive=a2d870ff9213bc80 decoded=83b3ac10afe786c7",
      "regression 3d f64 archive=af58216e0c1c6963 decoded=2875e1af1a1f05b0",
      "regression ragged f32 archive=e81381f7cc3b6be8 decoded=395e887aa9603b49",
      "regression ragged f64 archive=459d37ae80a51ba1 decoded=1b12f1313d377cf0",
      "interp 1d f32 archive=bb16903cd4311fe9 decoded=63dc4cc291620b39",
      "interp 1d f64 archive=fbab14aab5526df2 decoded=a72b9d55578947d7",
      "interp 2d f32 archive=844235501759fe28 decoded=5136a01330b4abbb",
      "interp 2d f64 archive=4cd3d7f391d01e41 decoded=2c51606f7f1338ee",
      "interp 3d f32 archive=061e288034b3ff9f decoded=72e3b22505eb9cd0",
      "interp 3d f64 archive=9b42cad96a664f28 decoded=cb081b2e96936c76",
      "interp ragged f32 archive=9812dae8d3374f17 decoded=278f2009c1c71985",
      "interp ragged f64 archive=2a9d25979629ee0f decoded=91442450ae7f98a5",
      "regression noisy f32 archive=1c250dd0dcda85ad decoded=31c92f36940d0e34",
      "regression noisy f64 archive=f6847c83b57320a1 decoded=ec46c865ae083989",
      "interp noisy f32 archive=bc979fd678eafedd decoded=a752d00c38843eef",
      "interp noisy f64 archive=375e46c81fa023cd decoded=2f7964e5475235a8",
  };
  const auto rows = sparse_path_byte_rows();
  ASSERT_EQ(rows.size(), std::size(kWant));
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], kWant[i]) << "row " << i;
}

std::vector<std::string> sparse_path_cost_rows() {
  std::vector<std::string> rows;
  for (const SparseCase& sc : kSparseCases) {
    const bool regression = sc.predictor == PredictorKind::kRegression;
    const char* construct = regression ? "regression_construct" : "interpolation_construct";
    const char* reconstruct = regression ? "regression_reconstruct" : "interpolation_reconstruct";
    for (const std::uint32_t capacity : {sc.capacity, 65536u}) {
      CompressConfig cfg = outlier_config(capacity);
      cfg.predictor = sc.predictor;
      const auto add = [&](FieldView field, const char* dtype) {
        const auto c = Compressor(cfg).compress(field, sc.ext);
        EXPECT_EQ(c.stats.outlier_count == 0, capacity == 65536u) << sc.stem;
        const auto d = Compressor::decompress(c.bytes);
        const std::string label =
            std::string(sc.stem) + " cap" + std::to_string(capacity) + " " + dtype;
        for (const char* stage : {construct, "gather_outlier"}) {
          rows.push_back(cost_row(label, c.stats.pipeline, stage));
        }
        for (const char* stage : {"scatter_outlier", reconstruct}) {
          rows.push_back(cost_row(label, d.pipeline, stage));
        }
      };
      add(rough_field<float>(sc.ext, sc.amp), "f32");
      add(rough_field<double>(sc.ext, sc.amp), "f64");
    }
  }
  return rows;
}

TEST(ModeledClock, RegressionInterpolationCostsArePinned) {
  const char* const kWant[] = {
      "regression 1d cap1024 f32 regression_construct br=66588 bw=99362 fl=229418 la=2 pi=16387 pat=0 cf=0x1.199999999999ap-1",
      "regression 1d cap1024 f32 gather_outlier br=131112 bw=19664 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "regression 1d cap1024 f32 scatter_outlier br=26208 bw=6552 fl=1638 la=1 pi=1638 pat=3 cf=0x0p+0",
      "regression 1d cap1024 f32 regression_reconstruct br=99362 bw=65548 fl=131096 la=1 pi=16387 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression 1d cap1024 f64 regression_construct br=132136 bw=99362 fl=229418 la=2 pi=16387 pat=0 cf=0x1.199999999999ap-1",
      "regression 1d cap1024 f64 gather_outlier br=131112 bw=19628 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "regression 1d cap1024 f64 scatter_outlier br=26160 bw=6540 fl=1635 la=1 pi=1635 pat=3 cf=0x0p+0",
      "regression 1d cap1024 f64 regression_reconstruct br=99362 bw=131096 fl=131096 la=1 pi=16387 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression 1d cap65536 f32 regression_construct br=66588 bw=99362 fl=229418 la=2 pi=16387 pat=0 cf=0x1.199999999999ap-1",
      "regression 1d cap65536 f32 gather_outlier br=131112 bw=8 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "regression 1d cap65536 f32 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "regression 1d cap65536 f32 regression_reconstruct br=99362 bw=65548 fl=131096 la=1 pi=16387 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression 1d cap65536 f64 regression_construct br=132136 bw=99362 fl=229418 la=2 pi=16387 pat=0 cf=0x1.199999999999ap-1",
      "regression 1d cap65536 f64 gather_outlier br=131112 bw=8 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "regression 1d cap65536 f64 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "regression 1d cap65536 f64 regression_reconstruct br=99362 bw=131096 fl=131096 la=1 pi=16387 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression 2d cap64 f32 regression_construct br=88348 bw=131482 fl=301938 la=2 pi=21567 pat=0 cf=0x1.199999999999ap-1",
      "regression 2d cap64 f32 gather_outlier br=172552 bw=48788 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "regression 2d cap64 f32 scatter_outlier br=65040 bw=16260 fl=4065 la=1 pi=4065 pat=3 cf=0x0p+0",
      "regression 2d cap64 f32 regression_reconstruct br=131482 bw=86268 fl=172536 la=1 pi=21567 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression 2d cap64 f64 regression_construct br=174616 bw=131482 fl=301938 la=2 pi=21567 pat=0 cf=0x1.199999999999ap-1",
      "regression 2d cap64 f64 gather_outlier br=172552 bw=48752 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "regression 2d cap64 f64 scatter_outlier br=64992 bw=16248 fl=4062 la=1 pi=4062 pat=3 cf=0x0p+0",
      "regression 2d cap64 f64 regression_reconstruct br=131482 bw=172536 fl=172536 la=1 pi=21567 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression 2d cap65536 f32 regression_construct br=88348 bw=131482 fl=301938 la=2 pi=21567 pat=0 cf=0x1.199999999999ap-1",
      "regression 2d cap65536 f32 gather_outlier br=172552 bw=8 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "regression 2d cap65536 f32 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "regression 2d cap65536 f32 regression_reconstruct br=131482 bw=86268 fl=172536 la=1 pi=21567 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression 2d cap65536 f64 regression_construct br=174616 bw=131482 fl=301938 la=2 pi=21567 pat=0 cf=0x1.199999999999ap-1",
      "regression 2d cap65536 f64 gather_outlier br=172552 bw=8 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "regression 2d cap65536 f64 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "regression 2d cap65536 f64 regression_reconstruct br=131482 bw=172536 fl=172536 la=1 pi=21567 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression 3d cap64 f32 regression_construct br=230760 bw=344060 fl=793100 la=2 pi=56650 pat=0 cf=0x1.199999999999ap-1",
      "regression 3d cap64 f32 gather_outlier br=453216 bw=68648 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "regression 3d cap64 f32 scatter_outlier br=91520 bw=22880 fl=5720 la=1 pi=5720 pat=3 cf=0x0p+0",
      "regression 3d cap64 f32 regression_reconstruct br=344060 bw=226600 fl=453200 la=1 pi=56650 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression 3d cap64 f64 regression_construct br=457360 bw=344060 fl=793100 la=2 pi=56650 pat=0 cf=0x1.199999999999ap-1",
      "regression 3d cap64 f64 gather_outlier br=453216 bw=68468 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "regression 3d cap64 f64 scatter_outlier br=91280 bw=22820 fl=5705 la=1 pi=5705 pat=3 cf=0x0p+0",
      "regression 3d cap64 f64 regression_reconstruct br=344060 bw=453200 fl=453200 la=1 pi=56650 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression 3d cap65536 f32 regression_construct br=230760 bw=344060 fl=793100 la=2 pi=56650 pat=0 cf=0x1.199999999999ap-1",
      "regression 3d cap65536 f32 gather_outlier br=453216 bw=8 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "regression 3d cap65536 f32 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "regression 3d cap65536 f32 regression_reconstruct br=344060 bw=226600 fl=453200 la=1 pi=56650 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression 3d cap65536 f64 regression_construct br=457360 bw=344060 fl=793100 la=2 pi=56650 pat=0 cf=0x1.199999999999ap-1",
      "regression 3d cap65536 f64 gather_outlier br=453216 bw=8 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "regression 3d cap65536 f64 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "regression 3d cap65536 f64 regression_reconstruct br=344060 bw=453200 fl=453200 la=1 pi=56650 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression ragged cap64 f32 regression_construct br=1852 bw=2762 fl=6370 la=2 pi=455 pat=0 cf=0x1.199999999999ap-1",
      "regression ragged cap64 f32 gather_outlier br=3656 bw=476 fl=455 la=2 pi=455 pat=3 cf=0x0p+0",
      "regression ragged cap64 f32 scatter_outlier br=624 bw=156 fl=39 la=1 pi=39 pat=3 cf=0x0p+0",
      "regression ragged cap64 f32 regression_reconstruct br=2762 bw=1820 fl=3640 la=1 pi=455 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression ragged cap64 f64 regression_construct br=3672 bw=2762 fl=6370 la=2 pi=455 pat=0 cf=0x1.199999999999ap-1",
      "regression ragged cap64 f64 gather_outlier br=3656 bw=476 fl=455 la=2 pi=455 pat=3 cf=0x0p+0",
      "regression ragged cap64 f64 scatter_outlier br=624 bw=156 fl=39 la=1 pi=39 pat=3 cf=0x0p+0",
      "regression ragged cap64 f64 regression_reconstruct br=2762 bw=3640 fl=3640 la=1 pi=455 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression ragged cap65536 f32 regression_construct br=1852 bw=2762 fl=6370 la=2 pi=455 pat=0 cf=0x1.199999999999ap-1",
      "regression ragged cap65536 f32 gather_outlier br=3656 bw=8 fl=455 la=2 pi=455 pat=3 cf=0x0p+0",
      "regression ragged cap65536 f32 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "regression ragged cap65536 f32 regression_reconstruct br=2762 bw=1820 fl=3640 la=1 pi=455 pat=0 cf=0x1.4cccccccccccdp-1",
      "regression ragged cap65536 f64 regression_construct br=3672 bw=2762 fl=6370 la=2 pi=455 pat=0 cf=0x1.199999999999ap-1",
      "regression ragged cap65536 f64 gather_outlier br=3656 bw=8 fl=455 la=2 pi=455 pat=3 cf=0x0p+0",
      "regression ragged cap65536 f64 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "regression ragged cap65536 f64 regression_reconstruct br=2762 bw=3640 fl=3640 la=1 pi=455 pat=0 cf=0x1.4cccccccccccdp-1",
      "interp 1d cap64 f32 interpolation_construct br=262192 bw=98322 fl=163870 la=15 pi=8193 pat=2 cf=0x1.3333333333333p-2",
      "interp 1d cap64 f32 gather_outlier br=131112 bw=20360 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "interp 1d cap64 f32 scatter_outlier br=27136 bw=6784 fl=1696 la=1 pi=1696 pat=3 cf=0x0p+0",
      "interp 1d cap64 f32 interpolation_reconstruct br=262192 bw=98322 fl=163870 la=15 pi=8193 pat=2 cf=0x1.3333333333333p-2",
      "interp 1d cap64 f64 interpolation_construct br=327740 bw=98322 fl=163870 la=15 pi=8193 pat=2 cf=0x1.3333333333333p-2",
      "interp 1d cap64 f64 gather_outlier br=131112 bw=20336 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "interp 1d cap64 f64 scatter_outlier br=27104 bw=6776 fl=1694 la=1 pi=1694 pat=3 cf=0x0p+0",
      "interp 1d cap64 f64 interpolation_reconstruct br=327740 bw=98322 fl=163870 la=15 pi=8193 pat=2 cf=0x1.3333333333333p-2",
      "interp 1d cap65536 f32 interpolation_construct br=262192 bw=98322 fl=163870 la=15 pi=8193 pat=2 cf=0x1.3333333333333p-2",
      "interp 1d cap65536 f32 gather_outlier br=131112 bw=8 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "interp 1d cap65536 f32 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "interp 1d cap65536 f32 interpolation_reconstruct br=262192 bw=98322 fl=163870 la=15 pi=8193 pat=2 cf=0x1.3333333333333p-2",
      "interp 1d cap65536 f64 interpolation_construct br=327740 bw=98322 fl=163870 la=15 pi=8193 pat=2 cf=0x1.3333333333333p-2",
      "interp 1d cap65536 f64 gather_outlier br=131112 bw=8 fl=16387 la=2 pi=16387 pat=3 cf=0x0p+0",
      "interp 1d cap65536 f64 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "interp 1d cap65536 f64 interpolation_reconstruct br=327740 bw=98322 fl=163870 la=15 pi=8193 pat=2 cf=0x1.3333333333333p-2",
      "interp 2d cap64 f32 interpolation_construct br=345072 bw=129402 fl=215670 la=15 pi=10783 pat=2 cf=0x1.3333333333333p-2",
      "interp 2d cap64 f32 gather_outlier br=172552 bw=26156 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "interp 2d cap64 f32 scatter_outlier br=34864 bw=8716 fl=2179 la=1 pi=2179 pat=3 cf=0x0p+0",
      "interp 2d cap64 f32 interpolation_reconstruct br=345072 bw=129402 fl=215670 la=15 pi=10783 pat=2 cf=0x1.3333333333333p-2",
      "interp 2d cap64 f64 interpolation_construct br=431340 bw=129402 fl=215670 la=15 pi=10783 pat=2 cf=0x1.3333333333333p-2",
      "interp 2d cap64 f64 gather_outlier br=172552 bw=26036 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "interp 2d cap64 f64 scatter_outlier br=34704 bw=8676 fl=2169 la=1 pi=2169 pat=3 cf=0x0p+0",
      "interp 2d cap64 f64 interpolation_reconstruct br=431340 bw=129402 fl=215670 la=15 pi=10783 pat=2 cf=0x1.3333333333333p-2",
      "interp 2d cap65536 f32 interpolation_construct br=345072 bw=129402 fl=215670 la=15 pi=10783 pat=2 cf=0x1.3333333333333p-2",
      "interp 2d cap65536 f32 gather_outlier br=172552 bw=8 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "interp 2d cap65536 f32 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "interp 2d cap65536 f32 interpolation_reconstruct br=345072 bw=129402 fl=215670 la=15 pi=10783 pat=2 cf=0x1.3333333333333p-2",
      "interp 2d cap65536 f64 interpolation_construct br=431340 bw=129402 fl=215670 la=15 pi=10783 pat=2 cf=0x1.3333333333333p-2",
      "interp 2d cap65536 f64 gather_outlier br=172552 bw=8 fl=21567 la=2 pi=21567 pat=3 cf=0x0p+0",
      "interp 2d cap65536 f64 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "interp 2d cap65536 f64 interpolation_reconstruct br=431340 bw=129402 fl=215670 la=15 pi=10783 pat=2 cf=0x1.3333333333333p-2",
      "interp 3d cap64 f32 interpolation_construct br=906400 bw=339900 fl=566500 la=15 pi=28325 pat=2 cf=0x1.3333333333333p-2",
      "interp 3d cap64 f32 gather_outlier br=453216 bw=63488 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "interp 3d cap64 f32 scatter_outlier br=84640 bw=21160 fl=5290 la=1 pi=5290 pat=3 cf=0x0p+0",
      "interp 3d cap64 f32 interpolation_reconstruct br=906400 bw=339900 fl=566500 la=15 pi=28325 pat=2 cf=0x1.3333333333333p-2",
      "interp 3d cap64 f64 interpolation_construct br=1133000 bw=339900 fl=566500 la=15 pi=28325 pat=2 cf=0x1.3333333333333p-2",
      "interp 3d cap64 f64 gather_outlier br=453216 bw=63272 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "interp 3d cap64 f64 scatter_outlier br=84352 bw=21088 fl=5272 la=1 pi=5272 pat=3 cf=0x0p+0",
      "interp 3d cap64 f64 interpolation_reconstruct br=1133000 bw=339900 fl=566500 la=15 pi=28325 pat=2 cf=0x1.3333333333333p-2",
      "interp 3d cap65536 f32 interpolation_construct br=906400 bw=339900 fl=566500 la=15 pi=28325 pat=2 cf=0x1.3333333333333p-2",
      "interp 3d cap65536 f32 gather_outlier br=453216 bw=8 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "interp 3d cap65536 f32 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "interp 3d cap65536 f32 interpolation_reconstruct br=906400 bw=339900 fl=566500 la=15 pi=28325 pat=2 cf=0x1.3333333333333p-2",
      "interp 3d cap65536 f64 interpolation_construct br=1133000 bw=339900 fl=566500 la=15 pi=28325 pat=2 cf=0x1.3333333333333p-2",
      "interp 3d cap65536 f64 gather_outlier br=453216 bw=8 fl=56650 la=2 pi=56650 pat=3 cf=0x0p+0",
      "interp 3d cap65536 f64 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "interp 3d cap65536 f64 interpolation_reconstruct br=1133000 bw=339900 fl=566500 la=15 pi=28325 pat=2 cf=0x1.3333333333333p-2",
      "interp ragged cap64 f32 interpolation_construct br=7280 bw=2730 fl=4550 la=9 pi=227 pat=2 cf=0x1.3333333333333p-2",
      "interp ragged cap64 f32 gather_outlier br=3656 bw=488 fl=455 la=2 pi=455 pat=3 cf=0x0p+0",
      "interp ragged cap64 f32 scatter_outlier br=640 bw=160 fl=40 la=1 pi=40 pat=3 cf=0x0p+0",
      "interp ragged cap64 f32 interpolation_reconstruct br=7280 bw=2730 fl=4550 la=9 pi=227 pat=2 cf=0x1.3333333333333p-2",
      "interp ragged cap64 f64 interpolation_construct br=9100 bw=2730 fl=4550 la=9 pi=227 pat=2 cf=0x1.3333333333333p-2",
      "interp ragged cap64 f64 gather_outlier br=3656 bw=488 fl=455 la=2 pi=455 pat=3 cf=0x0p+0",
      "interp ragged cap64 f64 scatter_outlier br=640 bw=160 fl=40 la=1 pi=40 pat=3 cf=0x0p+0",
      "interp ragged cap64 f64 interpolation_reconstruct br=9100 bw=2730 fl=4550 la=9 pi=227 pat=2 cf=0x1.3333333333333p-2",
      "interp ragged cap65536 f32 interpolation_construct br=7280 bw=2730 fl=4550 la=9 pi=227 pat=2 cf=0x1.3333333333333p-2",
      "interp ragged cap65536 f32 gather_outlier br=3656 bw=8 fl=455 la=2 pi=455 pat=3 cf=0x0p+0",
      "interp ragged cap65536 f32 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "interp ragged cap65536 f32 interpolation_reconstruct br=7280 bw=2730 fl=4550 la=9 pi=227 pat=2 cf=0x1.3333333333333p-2",
      "interp ragged cap65536 f64 interpolation_construct br=9100 bw=2730 fl=4550 la=9 pi=227 pat=2 cf=0x1.3333333333333p-2",
      "interp ragged cap65536 f64 gather_outlier br=3656 bw=8 fl=455 la=2 pi=455 pat=3 cf=0x0p+0",
      "interp ragged cap65536 f64 scatter_outlier br=0 bw=0 fl=0 la=1 pi=1 pat=3 cf=0x0p+0",
      "interp ragged cap65536 f64 interpolation_reconstruct br=9100 bw=2730 fl=4550 la=9 pi=227 pat=2 cf=0x1.3333333333333p-2",
  };
  const auto rows = sparse_path_cost_rows();
  ASSERT_EQ(rows.size(), std::size(kWant));
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], kWant[i]) << "row " << i;
}

// The goldens written before kRans moved from one rANS lane (tag 3) to
// eight (tag 7) stay as decode-only fixtures: the quant codes are the same,
// so each must decode to exactly the bytes of its eight-lane re-baseline.
TEST(GoldenArchive, OneLaneFixturesDecodeLikeTheirRebaselines) {
  for (const char* predictor : {"lorenzo", "regression", "interp"}) {
    for (const char* dtype : {"f32", "f64"}) {
      const std::string one = std::string(predictor) + "__rans__" + dtype + ".szp";
      const std::string eight = std::string(predictor) + "__rans8__" + dtype + ".szp";
      const auto fixture = golden(one);
      const auto rebaseline = golden(eight);
      EXPECT_EQ(Compressor::inspect(fixture).workflow, Workflow::kRansOneLane) << one;
      EXPECT_EQ(Compressor::inspect(rebaseline).workflow, Workflow::kRans) << eight;
      EXPECT_EQ(field_bytes(Compressor::decompress(fixture)),
                field_bytes(Compressor::decompress(rebaseline)))
          << one;
    }
  }
  const auto old_container = golden("streaming__auto__f32__one_lane.szpc");
  const auto container = golden("streaming__auto__f32.szpc");
  EXPECT_NE(old_container, container);
  EXPECT_EQ(StreamingCompressor::decompress(old_container).data,
            StreamingCompressor::decompress(container).data);
}

TEST(GoldenArchive, OneLaneTagIsDecodeOnly) {
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  cfg.workflow = Workflow::kRansOneLane;
  const Extents ext = Extents::d1(256);
  EXPECT_THROW((void)Compressor(cfg).compress(wave_f32(ext.count()), ext),
               std::invalid_argument);
}

TEST(GoldenArchive, GoldenStillDecodesWithinBound) {
  const auto d = Compressor::decompress(golden("lorenzo__huffman__f32.szp"));
  const auto data = wave_f32(d.extents.count());
  ASSERT_EQ(d.data.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_LT(std::abs(d.data[i] - data[i]), 1e-3) << "element " << i;
  }
}

// --- Decode through a reused workspace --------------------------------------

TEST(DecodeReuse, OneWorkspaceDecodesAnySequenceLikeAFreshCall) {
  // Every golden, ordered so that predictor, codec and element type all
  // change between neighbours; the rANS entries alternate between one-lane
  // fixtures and eight-lane goldens.
  const char* const kGoldens[] = {
      "lorenzo__huffman__f32",  "regression__rle__f64",    "lorenzo__rlevle__f32",
      "interp__huffman__f64",   "lorenzo__rle__f32",       "regression__huffman__f64",
      "lorenzo__rans8__f32",    "interp__rle__f64",        "lorenzo__lz77__f32",
      "regression__rlevle__f64", "lorenzo__lzh__f32",      "interp__rlevle__f64",
      "lorenzo__lzr__f32",      "regression__rans__f64",   "interp__huffman__f32",
      "lorenzo__rle__f64",      "regression__huffman__f32", "lorenzo__rlevle__f64",
      "interp__rle__f32",       "lorenzo__huffman__f64",   "regression__rle__f32",
      "lorenzo__rans__f64",     "interp__rlevle__f32",     "lorenzo__lz77__f64",
      "regression__rans8__f32", "lorenzo__lzh__f64",       "interp__rans8__f32",
      "lorenzo__lzr__f64",      "regression__rlevle__f32", "interp__rans__f64",
  };
  std::vector<std::vector<std::uint8_t>> seq;
  for (const char* stem : kGoldens) seq.push_back(golden(std::string(stem) + ".szp"));

  // Outlier-heavy fields of other sizes, inserted in pairs so the element
  // type still alternates.  Each leaves outliers or fused residuals in the
  // workspace scratch beyond what the next, smaller field covers: a
  // regression or interpolation scatter must re-zero it first.
  const auto insert_after = [&](std::size_t golden_index, std::vector<std::uint8_t> a,
                                std::vector<std::uint8_t> b) {
    const auto at = seq.begin() + static_cast<std::ptrdiff_t>(golden_index + 1);
    seq.insert(seq.insert(at, std::move(a)) + 1, std::move(b));
  };
  insert_after(19, noisy_archive<float>(PredictorKind::kRegression, Workflow::kRans,
                                        Extents::d2(50, 60), 3),
               noisy_archive<double>(PredictorKind::kInterpolation, Workflow::kHuffman,
                                     Extents::d1(2222), 4));
  insert_after(4, noisy_archive<double>(PredictorKind::kInterpolation, Workflow::kRans,
                                        Extents::d1(3000), 1),
               noisy_archive<float>(PredictorKind::kLorenzo, Workflow::kRleVle,
                                    Extents::d3(14, 12, 10), 2));

  // A corrupt archive mid-sequence: its framing and CRC are valid but its
  // last RLE run length is off by one, so it is rejected inside the codec
  // after the outlier stream and the output metadata were written.
  auto corrupt = noisy_archive<float>(PredictorKind::kRegression, Workflow::kRle,
                                      Extents::d1(1500), 5);
  // Flip the low byte of the last u16 run length, then re-seal the body.
  corrupt[corrupt.size() - archive::kCrcBytes - 2] ^= 1;
  archive::seal_crc32(corrupt);
  const std::size_t corrupt_at = 14;
  seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(corrupt_at), corrupt);

  for (std::size_t i = 1; i < seq.size(); ++i) {
    if (i == corrupt_at || i == corrupt_at + 1) continue;
    const auto a = Compressor::inspect(seq[i - 1]);
    const auto b = Compressor::inspect(seq[i]);
    EXPECT_NE(a.predictor, b.predictor) << "neighbours " << i - 1 << ", " << i;
    EXPECT_NE(a.workflow, b.workflow) << "neighbours " << i - 1 << ", " << i;
    EXPECT_NE(a.dtype, b.dtype) << "neighbours " << i - 1 << ", " << i;
  }

  Workspace ws;
  Decompressed out;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i == corrupt_at) {
      EXPECT_THROW(Compressor::decompress(seq[i], out, ws), DecodeError);
      continue;
    }
    Compressor::decompress(seq[i], out, ws);
    const Decompressed fresh = Compressor::decompress(seq[i]);
    EXPECT_EQ(out.dtype, fresh.dtype) << "archive " << i;
    EXPECT_EQ(out.extents, fresh.extents) << "archive " << i;
    EXPECT_EQ(field_bytes(out), field_bytes(fresh)) << "archive " << i;

    // Both directions share the workspace's predictor product: compressing
    // the decoded field through `ws` under the archive's own settings must
    // give a fresh compressor's archive, and leave `ws` for the next decode.
    // The one-lane tag has no encoder, so its fixtures re-encode as kRans.
    const auto info = Compressor::inspect(seq[i]);
    CompressConfig cfg;
    cfg.eb = ErrorBound::absolute(info.eb_abs);
    cfg.quant.capacity = info.capacity;
    cfg.predictor = info.predictor;
    cfg.workflow =
        info.workflow == Workflow::kRansOneLane ? Workflow::kRans : info.workflow;
    const FieldView field(out.bytes(), out.dtype);
    EXPECT_EQ(Compressor().compress(field, out.extents, cfg, ws).bytes,
              Compressor(cfg).compress(field, out.extents).bytes)
        << "archive " << i;
  }
}

// --- Workspace pool ---------------------------------------------------------

TEST(WorkspacePool, SteadyStateStopsAllocating) {
  // A smooth field, and a multi-block 3-D field with about one element in
  // ten an outlier, so Lorenzo's outlier windows and section are in play.
  const Extents wave_ext = Extents::d2(64, 50);
  const OutlierGolden& rough = kOutlierGoldens[2];
  const auto wave = wave_f32(wave_ext.count());
  const auto noisy_field = rough_field<float>(rough.ext, rough.amp);
  CompressConfig smooth_cfg;
  smooth_cfg.eb = ErrorBound::absolute(1e-3);
  for (const auto& [cfg, data, ext] :
       {std::make_tuple(smooth_cfg, &wave, wave_ext),
        std::make_tuple(outlier_config(64), &noisy_field, rough.ext)}) {
    const Compressor comp(cfg);

    // Warm-up: the pool creates its one workspace and the buffers grow to
    // their steady-state capacity.
    (void)comp.compress(*data, ext);
    (void)comp.compress(*data, ext);
    const auto warm = comp.workspace_stats();
    EXPECT_EQ(warm.created, 1u);

    for (int i = 0; i < 8; ++i) (void)comp.compress(*data, ext);
    const auto steady = comp.workspace_stats();
    EXPECT_EQ(steady.created, warm.created) << "steady-state compress created a new workspace";
    EXPECT_EQ(steady.grow_events, warm.grow_events)
        << "steady-state compress grew a pooled buffer";
    EXPECT_EQ(steady.leases, warm.leases + 8);
  }
}

TEST(WorkspacePool, GrowEventsSettleAcrossWorkflowsAndSizes) {
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  const Compressor comp(cfg);
  const Extents ext = Extents::d1(4000);
  const auto data = wave_f32(ext.count());
  const auto run_all = [&] {
    for (const Workflow wf : {Workflow::kHuffman, Workflow::kRle, Workflow::kRleVle,
                              Workflow::kRans}) {
      CompressConfig c = cfg;
      c.workflow = wf;
      (void)comp.compress(std::span<const float>(data), ext, c);
    }
  };
  run_all();
  const auto warm = comp.workspace_stats();
  run_all();
  run_all();
  const auto steady = comp.workspace_stats();
  EXPECT_EQ(steady.created, warm.created);
  EXPECT_EQ(steady.grow_events, warm.grow_events);
}

TEST(WorkspacePool, ExplicitLeaseReusedAcrossCalls) {
  // The streaming pipeline's per-worker pattern: lease one workspace, pass
  // it to the explicit-workspace compress overload for many calls.  The
  // archives must be identical to pool-leased compression, and the pool
  // must see exactly one lease for the whole batch.
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  const Extents ext = Extents::d1(2048);
  const auto data = wave_f32(ext.count());
  const Compressor comp(cfg);

  const auto pooled = comp.compress(data, ext);
  const auto leases_before = comp.workspace_stats().leases;
  {
    auto lease = comp.lease_workspace();
    for (int i = 0; i < 5; ++i) {
      const auto c = comp.compress(std::span<const float>(data), ext, cfg, *lease);
      EXPECT_EQ(c.bytes, pooled.bytes) << "call " << i;
    }
  }
  EXPECT_EQ(comp.workspace_stats().leases, leases_before + 1);
}

TEST(WorkspacePool, RepeatDecodeThroughOneWorkspaceGrowsNothing) {
  const Extents ext = Extents::d2(40, 50);
  for (const PredictorKind p :
       {PredictorKind::kLorenzo, PredictorKind::kRegression, PredictorKind::kInterpolation}) {
    for (const Workflow wf : {Workflow::kHuffman, Workflow::kRle, Workflow::kRleVle,
                              Workflow::kRans, Workflow::kLzr}) {
      if (p != PredictorKind::kLorenzo && wf == Workflow::kLzr) continue;
      const std::string label = std::to_string(static_cast<int>(p)) + "/" +
                                std::to_string(static_cast<int>(wf));
      const auto archive = noisy_archive<float>(p, wf, ext, 7);
      Workspace ws;
      Decompressed out;
      Compressor::decompress(archive, out, ws);
      const auto caps = ws.capacities();
      const std::size_t data_cap = out.data.capacity();
      Compressor::decompress(archive, out, ws);
      EXPECT_EQ(ws.capacities(), caps) << label;
      EXPECT_EQ(out.data.capacity(), data_cap) << label;

      // Same shape, other values: the next decode must rewrite every element.
      const auto other = noisy_archive<float>(p, wf, ext, 8);
      Compressor::decompress(other, out, ws);
      EXPECT_EQ(field_bytes(out), field_bytes(Compressor::decompress(other))) << label;
    }
  }
  // The multi-block outlier goldens: each decode after the first grows
  // nothing.
  for (const OutlierGolden& g : kOutlierGoldens) {
    for (const char* dtype : {"f32", "f64"}) {
      const auto archive = golden(std::string(g.stem) + "__" + dtype + ".szp");
      Workspace ws;
      Decompressed out;
      Compressor::decompress(archive, out, ws);
      const auto caps = ws.capacities();
      Compressor::decompress(archive, out, ws);
      EXPECT_EQ(ws.capacities(), caps) << g.stem << " " << dtype;
    }
  }
}

TEST(WorkspacePool, CopiedCompressorStartsCold) {
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  const Compressor a(cfg);
  const Extents ext = Extents::d1(1024);
  (void)a.compress(wave_f32(ext.count()), ext);
  const Compressor b(a);  // copies config only
  EXPECT_EQ(b.workspace_stats().created, 0u);
  EXPECT_EQ(b.config().eb.value, a.config().eb.value);
}

// --- Parallel slab streaming ------------------------------------------------

TEST(StreamingParallel, ContainerMatchesSerialByteForByte) {
  const Extents ext = Extents::d1(40000);
  const auto data = wave_f32(ext.count());
  StreamingConfig scfg;
  scfg.base.eb = ErrorBound::absolute(1e-3);
  scfg.max_slab_elems = 3000;

  scfg.workers = 1;
  const auto serial = StreamingCompressor(scfg).compress(data, ext);
  scfg.workers = 4;
  const auto parallel = StreamingCompressor(scfg).compress(data, ext);

  ASSERT_GT(serial.stats.slabs.size(), 4u);
  EXPECT_EQ(serial.bytes, parallel.bytes);
  ASSERT_EQ(serial.stats.slabs.size(), parallel.stats.slabs.size());
  for (std::size_t i = 0; i < serial.stats.slabs.size(); ++i) {
    EXPECT_EQ(serial.stats.slabs[i].offset, parallel.stats.slabs[i].offset);
    EXPECT_EQ(serial.stats.slabs[i].workflow, parallel.stats.slabs[i].workflow);
  }
}

TEST(StreamingParallel, CompressManyMatchesPerFieldCalls) {
  StreamingConfig scfg;
  scfg.base.eb = ErrorBound::absolute(1e-3);
  scfg.max_slab_elems = 1000;
  const StreamingCompressor comp(scfg);

  const std::vector<Extents> exts{Extents::d1(4096), Extents::d2(30, 100), Extents::d1(2500)};
  std::vector<std::vector<float>> storage;
  storage.reserve(exts.size());
  std::vector<std::span<const float>> fields;
  for (const auto& e : exts) {
    storage.push_back(wave_f32(e.count()));
    fields.emplace_back(storage.back());
  }

  const auto batch = comp.compress_many(fields, exts);
  ASSERT_EQ(batch.size(), exts.size());
  for (std::size_t f = 0; f < exts.size(); ++f) {
    EXPECT_EQ(batch[f].bytes, comp.compress(fields[f], exts[f]).bytes) << "field " << f;
  }
}

TEST(StreamingParallel, IndexMakesSlabAccessDirect) {
  const Extents ext = Extents::d1(10000);
  const auto data = wave_f32(ext.count());
  StreamingConfig scfg;
  scfg.base.eb = ErrorBound::absolute(1e-3);
  scfg.max_slab_elems = 1500;
  const auto c = StreamingCompressor(scfg).compress(data, ext);

  const auto idx = StreamingCompressor::index(c.bytes);
  EXPECT_EQ(idx.extents, ext);
  EXPECT_EQ(idx.dtype, DType::kFloat32);
  ASSERT_EQ(idx.slabs.size(), StreamingCompressor::slab_count(c.bytes));

  std::size_t covered = 0;
  for (std::size_t s = 0; s < idx.slabs.size(); ++s) {
    EXPECT_EQ(idx.slabs[s].offset, covered);
    SlabInfo via_index{};
    SlabInfo via_container{};
    const auto a = StreamingCompressor::decompress_slab(idx, s, &via_index);
    const auto b = StreamingCompressor::decompress_slab(c.bytes, s, &via_container);
    EXPECT_EQ(a.data, b.data);
    EXPECT_EQ(via_index.offset, via_container.offset);
    EXPECT_EQ(via_index.extents, via_container.extents);
    covered += idx.slabs[s].count;
  }
  EXPECT_EQ(covered, ext.count());
  EXPECT_THROW((void)StreamingCompressor::decompress_slab(idx, idx.slabs.size()),
               std::out_of_range);
}

// --- Stage and codec tables ------------------------------------------------

TEST(StageTable, CodecTableFollowsWorkflowTags) {
  // Row i of the codec table is the codec the header's workflow tag i
  // names, except row 3: eight-lane kRans (tag 7) sits where one-lane rANS
  // did, and tag 3 names the decode-only one-lane codec outside the table.
  const auto table = pipeline::codecs();
  ASSERT_EQ(table.size(), 7u);
  for (std::size_t row = 0; row < table.size(); ++row) {
    const auto wf = row == 3 ? Workflow::kRans : static_cast<Workflow>(row);
    EXPECT_EQ(table[row]->id(), wf);
    EXPECT_EQ(&pipeline::codec(wf), table[row]);
  }
  const auto& one_lane = pipeline::codec(Workflow::kRansOneLane);
  EXPECT_EQ(one_lane.id(), Workflow::kRansOneLane);
  for (const pipeline::LosslessCodec* row : table) EXPECT_NE(row, &one_lane);
  EXPECT_THROW((void)pipeline::codec(Workflow::kAuto), std::logic_error);
  EXPECT_THROW((void)pipeline::codec(static_cast<Workflow>(8)), std::logic_error);

  // Likewise the predictor tags, each stage known by its pinned report name.
  EXPECT_STREQ(pipeline::predict_stage(PredictorKind::kLorenzo).construct_stage(),
               "lorenzo_construct");
  EXPECT_STREQ(pipeline::predict_stage(PredictorKind::kRegression).construct_stage(),
               "regression_construct");
  EXPECT_STREQ(pipeline::predict_stage(PredictorKind::kInterpolation).construct_stage(),
               "interpolation_construct");
  EXPECT_THROW((void)pipeline::predict_stage(static_cast<PredictorKind>(3)), std::logic_error);
}

TEST(StageTable, CodecNamesAreUniqueAndStable) {
  std::set<std::string> names;
  for (const pipeline::LosslessCodec* codec : pipeline::codecs()) names.insert(codec->name());
  EXPECT_GE(names.size(), 7u);
  EXPECT_TRUE(names.count("huffman"));
  EXPECT_TRUE(names.count("rle"));
  EXPECT_TRUE(names.count("rle+vle"));
  EXPECT_TRUE(names.count("rans"));
  EXPECT_TRUE(names.count("lz77"));
  EXPECT_TRUE(names.count("lzh"));
  EXPECT_TRUE(names.count("lzr"));
}

}  // namespace
