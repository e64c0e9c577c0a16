// Static traffic & roofline analyzer (sim/traffic.hh): exact volume and
// segment math per clause kind, pinned per-kernel byte-volume/coalescing
// tables for the real kernels, the observed-vs-predicted TrafficFinding
// path, roofline classification against a DeviceSpec, and an unchecked run
// that records nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/compressor.hh"
#include "core/huffman/codebook.hh"
#include "core/huffman/codec.hh"
#include "core/predictor/lorenzo.hh"
#include "core/predictor/regression.hh"
#include "core/types.hh"
#include "sim/check.hh"
#include "sim/traffic.hh"
#include "zfp/zfp.hh"

namespace {

using namespace szp;
namespace chk = sim::checked;
namespace ctr = sim::contract;
namespace trf = sim::traffic;

using ctr::Geom;

// ---------------------------------------------------------------------------
// analyze(): volume and segment math per clause kind.
// ---------------------------------------------------------------------------

TEST(TrafficAnalyze, TiledWindowExactVolumeAndSegments) {
  // 4 blocks × 16 uint32 elements: 256 useful bytes, but each 64-byte tile
  // store drags a whole 128-byte segment — write coalescing 0.5.
  const std::vector<ctr::BufMeta> shapes = {{"out", 64, 4}};
  const auto t = trf::analyze(ctr::contract(ctr::writes("out", ctr::b() * 16, 16)),
                              Geom{4, 4, 1, 1}, shapes);
  ASSERT_EQ(t.buffers.size(), 1u);
  EXPECT_EQ(t.bytes_written(), 256u);
  EXPECT_EQ(t.bytes_read(), 0u);
  EXPECT_EQ(t.buffers[0].seg_bytes_written, 512u);
  EXPECT_NEAR(t.buffers[0].coalescing_write(), 0.5, 1e-12);
  EXPECT_FALSE(t.dynamic());
}

TEST(TrafficAnalyze, StridedNarrowFamilyScoresLow) {
  // Each block gathers 3 single 8-byte elements, 286 elements apart: every
  // access drags a full segment, so coalescing is 8/128.
  const std::vector<ctr::BufMeta> shapes = {{"priv", 858, 8}};
  const auto t = trf::analyze(
      ctr::contract(ctr::reads("priv", ctr::b(), 1).strided(3, 286).clamp()),
      Geom{2, 2, 1, 1}, shapes);
  EXPECT_EQ(t.bytes_read(), 48u);                      // 2 blocks × 3 × 8 B
  EXPECT_EQ(t.buffers[0].seg_bytes_read, 768u);        // 6 accesses × 128 B
  EXPECT_NEAR(t.buffers[0].coalescing_read(), 8.0 / 128.0, 1e-12);
}

TEST(TrafficAnalyze, ClampedTailShortensLastBlock) {
  // 3 tiles of 16 over a 40-element buffer: the last tile clamps to 8.
  const std::vector<ctr::BufMeta> shapes = {{"out", 40, 4}};
  const auto t = trf::analyze(ctr::contract(ctr::writes("out", ctr::b() * 16, 16).clamp()),
                              Geom{3, 3, 1, 1}, shapes);
  EXPECT_EQ(t.bytes_written(), 160u);  // 16 + 16 + 8 elements × 4 B
  EXPECT_EQ(t.buffers[0].seg_bytes_written, 384u);
}

TEST(TrafficAnalyze, BoxTileVolumeOver2D) {
  // 2×2 grid of 4×4 boxes over an 8×8 float field: 16-byte rows each drag a
  // 128-byte segment — the Lorenzo/ZFP tiled-kernel signature.
  const std::vector<ctr::BufMeta> shapes = {{"field", 64, 4}};
  const auto t = trf::analyze(
      ctr::contract(ctr::writes_box("field", ctr::bx() * 4, 4, ctr::by() * 4, 4,
                                    ctr::lit(0), 1, 8, 8, 1)),
      Geom{4, 2, 2, 1}, shapes);
  EXPECT_EQ(t.bytes_written(), 256u);                   // whole field once
  EXPECT_EQ(t.buffers[0].seg_bytes_written, 2048u);     // 16 rows × 128 B
  EXPECT_NEAR(t.buffers[0].coalescing_write(), 0.125, 1e-12);
}

TEST(TrafficAnalyze, BroadcastReadCountsEveryBlock) {
  // kAll is a broadcast: every block pulls the whole 128-byte buffer.
  const std::vector<ctr::BufMeta> shapes = {{"book", 32, 4}};
  const auto t = trf::analyze(ctr::contract(ctr::reads_all("book")), Geom{3, 3, 1, 1}, shapes);
  EXPECT_EQ(t.bytes_read(), 384u);
  EXPECT_EQ(t.buffers[0].seg_bytes_read, 384u);
  EXPECT_NEAR(t.buffers[0].coalescing_read(), 1.0, 1e-12);
}

TEST(TrafficAnalyze, BoundedDynamicUsesDeclaredCeiling) {
  const std::vector<ctr::BufMeta> shapes = {{"out", 100, 4}};
  const auto t = trf::analyze(ctr::contract(ctr::writes_dyn("out", 10)), Geom{4, 4, 1, 1},
                              shapes);
  EXPECT_EQ(t.bytes_written(), 40u);  // 10 elements once per launch, not per block
  EXPECT_TRUE(t.dynamic());
  EXPECT_FALSE(t.buffers[0].unbounded_write);
}

TEST(TrafficAnalyze, UnboundedDynamicFallsBackToWholeBuffer) {
  const std::vector<ctr::BufMeta> shapes = {{"out", 100, 4}};
  const auto t = trf::analyze(ctr::contract(ctr::writes_dyn("out")), Geom{4, 4, 1, 1}, shapes);
  EXPECT_EQ(t.bytes_written(), 400u);
  EXPECT_TRUE(t.dynamic());
  EXPECT_TRUE(t.buffers[0].unbounded_write);
}

TEST(TrafficAnalyze, HostSinkAppendsDeclaredStoreRow) {
  // host_sink declares the store side of a kernel whose output is
  // host-owned heap state; the row rides after the registered buffers.
  const std::vector<ctr::BufMeta> shapes = {{"in", 32, 4}};
  const auto t = trf::analyze(
      ctr::contract(ctr::reads_all("in"), ctr::host_sink("sink", 999)), Geom{1, 1, 1, 1},
      shapes);
  ASSERT_EQ(t.buffers.size(), 2u);
  const auto* sink = t.find("sink");
  ASSERT_NE(sink, nullptr);
  EXPECT_TRUE(sink->host_sink);
  EXPECT_TRUE(sink->dynamic);
  EXPECT_EQ(sink->bytes_written, 999u);
  EXPECT_EQ(t.bytes_written(), 999u);
  EXPECT_EQ(t.bytes_read(), 128u);
}

// ---------------------------------------------------------------------------
// Pinned per-kernel volumes: the real kernels' registered traffic.  These
// numbers are regression pins — they change only when a contract (or grid
// constant) changes, which is exactly what they are here to surface.
// ---------------------------------------------------------------------------

/// Run `fn` checked against a fresh registry, return the kernel's row.
template <typename Fn>
trf::KernelTraffic kernel_row(const std::string& kernel, Fn&& fn) {
  trf::reset_registry();
  {
    chk::ScopedMode checked(chk::Mode::kInterval);
    fn();
  }
  for (const auto& row : trf::registry_snapshot()) {
    if (row.kernel == kernel) return row;
  }
  ADD_FAILURE() << "kernel '" << kernel << "' not recorded";
  return {};
}

std::vector<float> ramp(std::size_t n) {
  std::vector<float> d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = static_cast<float>(i) * 0.5f;
  return d;
}

TEST(TrafficKernels, Lorenzo1D) {
  const auto data = ramp(64);
  const auto row = kernel_row("lorenzo_construct", [&] {
    const auto res = lorenzo_construct<float>(data, Extents::d1(64), 0.01, QuantConfig{});
    (void)res;
  });
  EXPECT_EQ(row.bytes_read, 256u);
  // Codes (2 B) and outlier slots (8 B) per element of the box, plus a
  // 2-byte count per box row.
  EXPECT_EQ(row.bytes_written, 642u);
  // Every stream is unit-stride; the row's count drags a whole segment.
  EXPECT_NEAR(row.coalescing(), 0.8770, 0.001);
}

TEST(TrafficKernels, Lorenzo2D) {
  const auto data = ramp(256);
  const auto row = kernel_row("lorenzo_construct", [&] {
    const auto res = lorenzo_construct<float>(data, Extents::d2(16, 16), 0.01, QuantConfig{});
    (void)res;
  });
  EXPECT_EQ(row.bytes_read, 1024u);
  EXPECT_EQ(row.bytes_written, 2592u);
  // 2-D tiles write 16-element row stripes: every stripe drags whole
  // segments, so the score drops well below the 1-D streaming case.
  EXPECT_NEAR(row.coalescing(), 0.4414, 0.001);
}

TEST(TrafficKernels, Lorenzo3D) {
  const auto data = ramp(512);
  const auto row = kernel_row("lorenzo_construct", [&] {
    const auto res = lorenzo_construct<float>(data, Extents::d3(8, 8, 8), 0.01, QuantConfig{});
    (void)res;
  });
  EXPECT_EQ(row.bytes_read, 2048u);
  EXPECT_EQ(row.bytes_written, 5248u);
  // 3-D tiles touch 8-element pencils — the narrowest stripes, worst score.
  EXPECT_NEAR(row.coalescing(), 0.2227, 0.001);
}

TEST(TrafficKernels, RegressionConstruct) {
  const auto data = ramp(256);
  PredictorProduct res;
  const auto row = kernel_row("regression_construct", [&] {
    regression_construct_into<float>(data, Extents::d2(16, 16), 0.01, QuantConfig{}, res);
  });
  EXPECT_EQ(row.bytes_read, 1040u);   // data + per-chunk coefficient loads
  // Codes (2 B) and outlier slots (8 B) per element, a 2-byte count per box
  // row and the chunk's coefficients: 512 + 2048 + 32 + 16.
  EXPECT_EQ(row.bytes_written, 2608u);
  // Every 16-element row of data, codes, slots and counts drags whole
  // segments (2048 segment bytes each), the coefficients one per direction
  // (128 each): (1040 + 2608) / 8448.
  EXPECT_NEAR(row.coalescing(), 0.4318, 0.001);
}

TEST(TrafficKernels, HuffmanEncode) {
  std::vector<quant_t> symbols(1000);
  std::vector<std::uint64_t> freq(64, 0);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    symbols[i] = static_cast<quant_t>(i % 16);
    ++freq[symbols[i]];
  }
  const auto book = HuffmanCodebook::build(freq);
  const auto row = kernel_row("huffman_encode/deflate", [&] {
    const auto enc = huffman_encode(symbols, book, 256);
    (void)enc;
  });
  EXPECT_EQ(row.bytes_read, 2064u);  // codes + per-chunk bit offsets
  EXPECT_EQ(row.bytes_written, 500u);
  EXPECT_TRUE(row.dynamic);  // payload volume is the scan total, a dyn bound
}

TEST(TrafficKernels, ZfpCompress) {
  const auto data = ramp(256);
  const auto row = kernel_row("zfp_compress", [&] {
    const auto c = zfp::zfp_compress(data, Extents::d2(16, 16));
    (void)c;
  });
  EXPECT_EQ(row.bytes_read, 1024u);
  EXPECT_EQ(row.bytes_written, 256u);  // 8 bits/value at the default rate
  EXPECT_NEAR(row.coalescing(), 0.12, 0.02);
}

// ---------------------------------------------------------------------------
// Dynamic cross-validation: observed traffic beyond the declared volume is
// a TrafficFinding through the ordinary checked report.
// ---------------------------------------------------------------------------

TEST(TrafficValidate, ObservedBeyondDeclaredBoundRaisesFinding) {
  chk::ScopedMode guard(chk::Mode::kInterval);
  // The contract declares a 4-element dynamic write ceiling; the kernel
  // writes 16.  Containment stays quiet (kDynamic declares the whole
  // buffer), so only the traffic cross-validation can object.
  std::vector<std::uint32_t> out(64, 0);
  chk::launch("seeded_traffic_excess", 1,
              chk::bufs(chk::out(std::span<std::uint32_t>(out), "out")),
              ctr::contract(ctr::writes_dyn("out", 4)),
              [](std::size_t, const auto& v) {
    for (std::size_t i = 0; i < 16; ++i) v[i] = 1u;
  });
  const auto& report = chk::current_report();
  ASSERT_FALSE(report.traffic_mismatches.empty()) << chk::report_text();
  const auto& f = report.traffic_mismatches.front();
  EXPECT_EQ(f.kernel, "seeded_traffic_excess");
  EXPECT_EQ(f.buffer, "out");
  EXPECT_TRUE(f.is_write);
  EXPECT_EQ(f.predicted_bytes, 16u);  // 4 elements × 4 B declared
  EXPECT_EQ(f.observed_bytes, 64u);   // 16 elements × 4 B observed
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.contract_mismatches.empty()) << chk::report_text();
}

TEST(TrafficValidate, DeclaredBoundHonoredStaysClean) {
  chk::ScopedMode guard(chk::Mode::kInterval);
  std::vector<std::uint32_t> out(64, 0);
  chk::launch("seeded_traffic_ok", 1,
              chk::bufs(chk::out(std::span<std::uint32_t>(out), "out")),
              ctr::contract(ctr::writes_dyn("out", 16)),
              [](std::size_t, const auto& v) {
    for (std::size_t i = 0; i < 16; ++i) v[i] = 1u;
  });
  EXPECT_TRUE(chk::current_report().clean()) << chk::report_text();
}

// ---------------------------------------------------------------------------
// Roofline classification.
// ---------------------------------------------------------------------------

trf::KernelTraffic fully_coalesced(const std::string& kernel) {
  trf::KernelTraffic t;
  t.kernel = kernel;
  t.launches = 1;
  t.bytes_read = t.seg_bytes_read = 1024;
  t.bytes_written = t.seg_bytes_written = 1024;
  return t;
}

TEST(TrafficRoofline, StreamingKernelIsBandwidthBoundOnV100) {
  const auto row = trf::classify(sim::v100(), fully_coalesced("lorenzo_construct"));
  EXPECT_FALSE(row.compute_bound);
  EXPECT_GT(row.ridge, row.intensity);
}

TEST(TrafficRoofline, ClassificationFlipsWhenBandwidthScales) {
  // zfp sits at 4.0 flop/B, just left of the V100 ridge (~5.5 at full
  // coalescing).  Doubling the memory bandwidth halves the ridge and the
  // same kernel crosses to compute-bound — the roofline's defining move.
  const auto t = fully_coalesced("zfp_compress");
  EXPECT_FALSE(trf::classify(sim::v100(), t).compute_bound);
  sim::DeviceSpec fat = sim::v100();
  fat.mem_bw_gbps *= 2.0;
  EXPECT_TRUE(trf::classify(fat, t).compute_bound);
}

TEST(TrafficRoofline, PoorCoalescingRaisesTheRidge) {
  // Same kernel, quarter coalescing: effective bandwidth drops 4×, the
  // ridge rises 4×, and the classification is further from compute-bound.
  auto t = fully_coalesced("zfp_compress");
  const double full_ridge = trf::classify(sim::v100(), t).ridge;
  t.seg_bytes_read = t.bytes_read * 4;
  t.seg_bytes_written = t.bytes_written * 4;
  const double poor_ridge = trf::classify(sim::v100(), t).ridge;
  EXPECT_NEAR(poor_ridge, full_ridge * 4.0, full_ridge * 1e-9);
}

// ---------------------------------------------------------------------------
// Registry and table determinism.
// ---------------------------------------------------------------------------

TEST(TrafficRegistry, TablesAreDeterministicAndSorted) {
  trf::reset_registry();
  const std::vector<ctr::BufMeta> shapes = {{"out", 64, 4}};
  const auto t = trf::analyze(ctr::contract(ctr::writes("out", ctr::b() * 16, 16)),
                              Geom{4, 4, 1, 1}, shapes);
  trf::record("zz_kernel", t);
  trf::record("aa_kernel", t);
  trf::record("aa_kernel", t);

  const auto rows = trf::registry_snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].kernel, "aa_kernel");  // sorted by name
  EXPECT_EQ(rows[0].launches, 2u);
  EXPECT_EQ(rows[0].bytes_written, 512u);  // accumulated across launches
  EXPECT_EQ(rows[1].kernel, "zz_kernel");

  const std::string once = trf::traffic_table_text();
  EXPECT_EQ(once, trf::traffic_table_text());
  EXPECT_NE(once.find("aa_kernel"), std::string::npos);
  const std::string roofline = trf::roofline_table_text(sim::v100());
  EXPECT_EQ(roofline, trf::roofline_table_text(sim::v100()));
  EXPECT_LT(once.find("aa_kernel"), once.find("zz_kernel"));
  trf::reset_registry();
  EXPECT_TRUE(trf::registry_snapshot().empty());
}

TEST(TrafficRegistry, UncheckedRunRecordsNothing) {
  // With checking off a launch is the bare grid: no contract is evaluated,
  // so Huffman and RLE+VLE round trips leave the registry empty.
  chk::ScopedMode unchecked(chk::Mode::kOff);
  trf::reset_registry();
  const Extents ext = Extents::d1(20000);
  const auto data = ramp(ext.count());
  for (const Workflow wf : {Workflow::kHuffman, Workflow::kRleVle}) {
    CompressConfig cfg;
    cfg.eb = ErrorBound::absolute(1e-2);
    cfg.workflow = wf;
    const auto c = Compressor(cfg).compress(data, ext);
    EXPECT_EQ(c.stats.workflow_used, wf);
    EXPECT_EQ(Compressor::decompress(c.bytes).data.size(), ext.count());
  }
  EXPECT_TRUE(trf::registry_snapshot().empty());
}

}  // namespace
