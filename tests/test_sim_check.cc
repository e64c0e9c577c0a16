// Checked-launch mode: seeded cross-block races and out-of-bounds accesses
// must be flagged; a clean full compress->decompress round-trip must not be.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <random>
#include <sstream>
#include <vector>

#include "core/compressor.hh"
#include "core/io/io.hh"
#include "core/metrics.hh"
#include "sim/check.hh"
#include "tools/cli.hh"

namespace {

using namespace szp;
namespace chk = sim::checked;
namespace ctr = sim::contract;

TEST(SimCheck, DisabledRecordsNothing) {
  chk::ScopedMode guard(chk::Mode::kOff);
  std::vector<int> buf(64, 0);
  chk::launch("disabled_kernel", 4, chk::bufs(chk::out(std::span<int>(buf), "buf")),
              ctr::contract(ctr::writes_dyn("buf")),
              [](std::size_t b, const auto& v) { v[0] = static_cast<int>(b); });
  EXPECT_EQ(chk::current_report().launches_checked, 0u);
  EXPECT_TRUE(chk::current_report().clean());
}

TEST(SimCheck, FlagsCrossBlockWriteWriteOverlap) {
  chk::ScopedMode guard(chk::Mode::kInterval);
  // Two blocks both write quant cell 7 — the canonical block-independence
  // violation a fused kernel refactor could introduce.
  std::vector<std::uint16_t> quant(256, 0);
  chk::launch("seeded_ww_race", 2,
              chk::bufs(chk::out(std::span<std::uint16_t>(quant), "quant")),
              ctr::contract(ctr::writes_dyn("quant")),
              [](std::size_t b, const auto& vquant) {
    const std::size_t base = b * 128;
    for (std::size_t i = 0; i < 128; ++i) vquant[base + i] = static_cast<std::uint16_t>(b);
    vquant[7] = static_cast<std::uint16_t>(b);  // both blocks collide here
  });
  const auto& report = chk::current_report();
  ASSERT_FALSE(report.races.empty());
  const auto& race = report.races.front();
  EXPECT_TRUE(race.write_write);
  EXPECT_EQ(race.kernel, "seeded_ww_race");
  EXPECT_EQ(race.buffer, "quant");
  EXPECT_NE(race.block_a, race.block_b);
  // The collision window must cover element 7.
  EXPECT_LE(race.byte_lo, 7 * sizeof(std::uint16_t));
  EXPECT_GT(race.byte_hi, 7 * sizeof(std::uint16_t));
  EXPECT_TRUE(report.oob.empty());
}

TEST(SimCheck, FlagsCrossBlockReadWriteOverlap) {
  chk::ScopedMode guard(chk::Mode::kInterval);
  // Block 0 writes [0, 64); block 1 reads [60, 124): a read/write hazard
  // even though OpenMP's static schedule may serialize the two blocks.
  std::vector<float> halo(128, 0.0f);
  std::vector<float> out(2, 0.0f);
  chk::launch("seeded_rw_race", 2,
              chk::bufs(chk::inout(std::span<float>(halo), "halo"),
                        chk::out(std::span<float>(out), "out")),
              ctr::contract(ctr::updates_dyn("halo"), ctr::writes_dyn("out")),
              [](std::size_t b, const auto& vhalo, const auto& vout) {
    if (b == 0) {
      for (std::size_t i = 0; i < 64; ++i) vhalo[i] = 1.0f;
    } else {
      float acc = 0.0f;
      vhalo.note_read(60, 64);
      for (std::size_t i = 60; i < 124; ++i) acc += vhalo.data()[i];
      vout[b] = acc;
    }
  });
  const auto& report = chk::current_report();
  ASSERT_FALSE(report.races.empty());
  bool found_rw = false;
  for (const auto& race : report.races) {
    if (race.buffer == "halo" && !race.write_write) found_rw = true;
  }
  EXPECT_TRUE(found_rw) << chk::report_text();
}

TEST(SimCheck, FlagsOobReadInStridedScan) {
  chk::ScopedMode guard(chk::Mode::kInterval);
  // Off-by-one strided scan: 8 tiles of 16 over a 127-element buffer; the
  // last tile's final read lands at element 127, one past the extent.
  std::vector<std::int32_t> data(127, 1);
  std::vector<std::int32_t> sums(8, 0);
  chk::launch("seeded_oob_scan", 8,
              chk::bufs(chk::in(std::span<const std::int32_t>(data), "data"),
                        chk::out(std::span<std::int32_t>(sums), "sums")),
              ctr::contract(ctr::reads_dyn("data"), ctr::writes_dyn("sums")),
              [](std::size_t b, const auto& vdata, const auto& vsums) {
    std::int32_t acc = 0;
    for (std::size_t i = 0; i < 16; ++i) acc += vdata[b * 16 + i];  // block 7 runs past
    vsums[b] = acc;
  });
  const auto& report = chk::current_report();
  ASSERT_FALSE(report.oob.empty());
  const auto& oob = report.oob.front();
  EXPECT_EQ(oob.kernel, "seeded_oob_scan");
  EXPECT_EQ(oob.buffer, "data");
  EXPECT_EQ(oob.block, 7u);
  EXPECT_EQ(oob.element_index, 127u);
  EXPECT_EQ(oob.element_count, 127u);
  EXPECT_FALSE(oob.is_write);
  EXPECT_TRUE(report.races.empty()) << chk::report_text();
}

TEST(SimCheck, FlagsOobWrite) {
  chk::ScopedMode guard(chk::Mode::kInterval);
  std::vector<double> buf(10, 0.0);
  chk::launch("seeded_oob_write", 1,
              chk::bufs(chk::out(std::span<double>(buf), "buf")),
              ctr::contract(ctr::writes_dyn("buf")),
              [](std::size_t, const auto& v) {
    for (std::size_t i = 0; i <= 10; ++i) v[i] = 1.0;  // one past the end
  });
  const auto& report = chk::current_report();
  ASSERT_EQ(report.oob.size(), 1u);
  EXPECT_TRUE(report.oob.front().is_write);
  EXPECT_EQ(report.oob.front().element_index, 10u);
  // The OOB write was redirected to a sink, not memory past the buffer.
  for (double v : buf) EXPECT_EQ(v, 1.0);
}

TEST(SimCheck, ReportTextNamesKernelBlockAndOffsets) {
  chk::ScopedMode guard(chk::Mode::kInterval);
  std::vector<int> cell(4, 0);
  chk::launch("named_kernel", 2, chk::bufs(chk::out(std::span<int>(cell), "cell")),
              ctr::contract(ctr::writes_dyn("cell")),
              [](std::size_t b, const auto& v) { v[1] = static_cast<int>(b); });
  const std::string text = chk::report_text();
  EXPECT_NE(text.find("named_kernel"), std::string::npos) << text;
  EXPECT_NE(text.find("cell"), std::string::npos) << text;
  EXPECT_NE(text.find("WRITE/WRITE"), std::string::npos) << text;
}

// --------------------------------------------------------------------------
// Zero false positives: full pipelines under the checker.
// --------------------------------------------------------------------------

std::vector<float> smooth_field(const Extents& ext, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(ext.count());
  float acc = 0.0f;
  for (auto& x : v) {
    acc = 0.995f * acc + 0.02f * dist(rng);
    x = acc + 0.001f * dist(rng);
  }
  return v;
}

class SimCheckRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SimCheckRoundTrip, CompressDecompressHasNoFindings) {
  const int rank = GetParam();
  const Extents ext = rank == 1   ? Extents::d1(5000)
                      : rank == 2 ? Extents::d2(60, 70)
                                  : Extents::d3(17, 18, 19);
  const auto data = smooth_field(ext, static_cast<std::uint32_t>(rank));

  chk::ScopedMode guard(chk::Mode::kInterval);
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-3);
  const auto compressed = Compressor(cfg).compress(data, ext);
  const auto restored = Compressor::decompress(compressed.bytes);

  const auto& report = chk::current_report();
  EXPECT_GT(report.launches_checked, 0u);
  EXPECT_TRUE(report.clean()) << chk::report_text();

  const auto m = compare_fields(data, restored.data);
  EXPECT_LT(m.max_abs_error, compressed.stats.eb_abs);
}

INSTANTIATE_TEST_SUITE_P(Ranks, SimCheckRoundTrip, ::testing::Values(1, 2, 3));

TEST(SimCheck, AllWorkflowsRoundTripClean) {
  const Extents ext = Extents::d2(48, 52);
  const auto data = smooth_field(ext, 99);
  for (const Workflow wf : {Workflow::kHuffman, Workflow::kRle, Workflow::kRleVle}) {
    chk::ScopedMode guard(chk::Mode::kInterval);
    CompressConfig cfg;
    cfg.eb = ErrorBound::relative(1e-3);
    cfg.workflow = wf;
    const auto compressed = Compressor(cfg).compress(data, ext);
    (void)Compressor::decompress(compressed.bytes);
    EXPECT_TRUE(chk::current_report().clean())
        << "workflow " << static_cast<int>(wf) << ":\n" << chk::report_text();
  }
}

TEST(SimCheck, CliCheckFlagReportsClean) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "szp_sim_check_cli";
  fs::create_directories(dir);
  const Extents ext = Extents::d1(4096);
  const auto data = smooth_field(ext, 7);
  io::write_file(dir / "in.f32", {reinterpret_cast<const std::uint8_t*>(data.data()),
                                   data.size() * sizeof(float)});
  std::ostringstream out, err;
  const int rc = szp::cli::run({"compress", "-i", (dir / "in.f32").string(), "-o",
                                (dir / "out.szp").string(), "-d", "4096", "--eb", "1e-3",
                                "--check"},
                               out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("sim-check"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("no violations detected"), std::string::npos) << out.str();
  fs::remove_all(dir);
}

}  // namespace
