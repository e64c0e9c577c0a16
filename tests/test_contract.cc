// Footprint contracts: the affine prover's positive and negative space, the
// observed-vs-declared dynamic cross-validation, word mode's shadow on
// proved and unproved launches alike, and the verdict registry fed by the
// real Huffman/ZFP kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/huffman/codebook.hh"
#include "core/huffman/codec.hh"
#include "core/types.hh"
#include "sim/check.hh"
#include "sim/prove.hh"
#include "zfp/zfp.hh"

namespace {

using namespace szp;
namespace chk = sim::checked;
namespace ctr = sim::contract;

using ctr::Geom;
using ctr::Verdict;

bool any_reason_contains(const ctr::ProveResult& r, const std::string& needle) {
  return std::any_of(r.reasons.begin(), r.reasons.end(), [&](const std::string& s) {
    return s.find(needle) != std::string::npos;
  });
}

const ctr::KernelVerdict* find_verdict(const std::vector<ctr::KernelVerdict>& all,
                                       const std::string& kernel) {
  for (const auto& e : all) {
    if (e.kernel == kernel) return &e;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Prover unit tests: what the affine domain proves and what it refuses.
// ---------------------------------------------------------------------------

TEST(ContractProver, DisjointTileWindowsProved) {
  const auto con = ctr::contract(ctr::writes("out", ctr::b() * 16, 16));
  const auto res = ctr::prove(con, Geom{4, 4, 1, 1}, {{"out", 64}});
  EXPECT_TRUE(res.proved()) << (res.reasons.empty() ? "" : res.reasons.front());
}

TEST(ContractProver, StridedColumnGatherProved) {
  // freq_merge shape: each block writes one disjoint 64-wide output column
  // and gathers the same column from every per-tile private histogram (a
  // strided, clamped read family).  Reads never impede write disjointness.
  const std::int64_t tiles = 3, alphabet = 286;
  const auto con =
      ctr::contract(ctr::reads("priv", ctr::b() * 64, 64).strided(tiles, alphabet).clamp(),
                    ctr::writes("freq", ctr::b() * 64, 64).clamp());
  const auto res = ctr::prove(con, Geom{5, 5, 1, 1},
                              {{"priv", static_cast<std::uint64_t>(tiles * alphabet)},
                               {"freq", static_cast<std::uint64_t>(alphabet)}});
  EXPECT_TRUE(res.proved()) << (res.reasons.empty() ? "" : res.reasons.front());
}

TEST(ContractProver, HaloReadOverDistinctInputProved) {
  // Stencil shape: clamped halo reads of the input overlap between blocks,
  // but the input carries no write clause, so only the output tiling must be
  // disjoint.
  const auto con = ctr::contract(ctr::reads("in", ctr::b() * 16 - 1, 18).clamp(),
                                 ctr::writes("out", ctr::b() * 16, 16));
  const auto res = ctr::prove(con, Geom{4, 4, 1, 1}, {{"in", 64}, {"out", 64}});
  EXPECT_TRUE(res.proved()) << (res.reasons.empty() ? "" : res.reasons.front());
}

TEST(ContractProver, HaloReadOverWrittenBufferRejected) {
  // Same halo, but now the reads and writes hit one buffer: the merged
  // family spans 18 > stride 16, so neighbouring blocks provably collide.
  const auto con = ctr::contract(ctr::reads("f", ctr::b() * 16 - 1, 18).clamp(),
                                 ctr::writes("f", ctr::b() * 16, 16));
  const auto res = ctr::prove(con, Geom{4, 4, 1, 1}, {{"f", 64}});
  EXPECT_EQ(res.verdict, Verdict::kUnproved);
  EXPECT_TRUE(any_reason_contains(res, "companion clause")) << res.reasons.front();
}

TEST(ContractProver, OverlappingWriteTilesRejected) {
  const auto con = ctr::contract(ctr::writes("out", ctr::b() * 8, 16));
  const auto res = ctr::prove(con, Geom{4, 4, 1, 1}, {{"out", 64}});
  EXPECT_EQ(res.verdict, Verdict::kUnproved);
  EXPECT_TRUE(any_reason_contains(res, "stride 8 < span 16")) << res.reasons.front();
}

TEST(ContractProver, ConstantWriteWindowRejected) {
  const auto con = ctr::contract(ctr::writes("out", ctr::lit(0), 4));
  const auto res = ctr::prove(con, Geom{2, 2, 1, 1}, {{"out", 16}});
  EXPECT_EQ(res.verdict, Verdict::kUnproved);
  EXPECT_TRUE(any_reason_contains(res, "identical window")) << res.reasons.front();
}

TEST(ContractProver, UnclampedOutOfBoundsRejected) {
  // 4 tiles of 16 need 64 elements; the buffer only has 48.
  const auto con = ctr::contract(ctr::writes("out", ctr::b() * 16, 16));
  const auto res = ctr::prove(con, Geom{4, 4, 1, 1}, {{"out", 48}});
  EXPECT_EQ(res.verdict, Verdict::kUnproved);
  EXPECT_TRUE(any_reason_contains(res, "outside [0, 48)")) << res.reasons.front();
}

TEST(ContractProver, DataDependentWriteStaysUnproved) {
  const auto con = ctr::contract(ctr::writes_dyn("out"));
  const auto res = ctr::prove(con, Geom{4, 4, 1, 1}, {{"out", 64}});
  EXPECT_EQ(res.verdict, Verdict::kUnproved);
  EXPECT_TRUE(any_reason_contains(res, "data-dependent write footprint"));
}

TEST(ContractProver, WholeBufferWriteOnSingleBlockGridVacuouslyProved) {
  const auto con = ctr::contract(ctr::updates_all("heap"));
  EXPECT_TRUE(ctr::prove(con, Geom{1, 1, 1, 1}, {{"heap", 1024}}).proved());
  // The same clause on a multi-block grid is an honest refusal.
  const auto multi = ctr::prove(con, Geom{2, 2, 1, 1}, {{"heap", 1024}});
  EXPECT_EQ(multi.verdict, Verdict::kUnproved);
  EXPECT_TRUE(any_reason_contains(multi, "whole-buffer write"));
}

TEST(ContractProver, UnregisteredBufferNameRejected) {
  const auto con = ctr::contract(ctr::writes("typo", ctr::b(), 1));
  const auto res = ctr::prove(con, Geom{2, 2, 1, 1}, {{"out", 16}});
  EXPECT_EQ(res.verdict, Verdict::kUnproved);
  EXPECT_TRUE(any_reason_contains(res, "names no registered buffer"));
}

TEST(ContractProver, MixedLinearAndCoordinateTermsRejected) {
  const auto con = ctr::contract(ctr::writes("out", ctr::b() + ctr::bx(), 1));
  const auto res = ctr::prove(con, Geom{4, 2, 2, 1}, {{"out", 16}});
  EXPECT_EQ(res.verdict, Verdict::kUnproved);
  EXPECT_TRUE(any_reason_contains(res, "mixes b() and bx()"));
}

TEST(ContractProver, CoordinateTermsOnLinearGridRejected) {
  const auto con = ctr::contract(ctr::writes("out", ctr::bx() * 4, 4));
  // grid 6 with gx*gy*gz = 1 != 6: a linear launch.
  const auto res = ctr::prove(con, Geom{6, 1, 1, 1}, {{"out", 24}});
  EXPECT_EQ(res.verdict, Verdict::kUnproved);
  EXPECT_TRUE(any_reason_contains(res, "linear (non-launch_3d) grid"));
}

TEST(ContractProver, MixedRadixCoordinateWindowProved) {
  // zfp payload shape on a 4x3x2 grid: per-block window of 8, x stride 8,
  // y stride 8*gx, z stride 8*gx*gy — exact mixed-radix packing.
  const Geom g{24, 4, 3, 2};
  const auto con =
      ctr::contract(ctr::writes("pay", ctr::bx() * 8 + ctr::by() * 32 + ctr::bz() * 96, 8));
  EXPECT_TRUE(ctr::prove(con, g, {{"pay", 192}}).proved());

  // Shrinking the x stride below the window span breaks the packing.
  const auto bad =
      ctr::contract(ctr::writes("pay", ctr::bx() * 4 + ctr::by() * 32 + ctr::bz() * 96, 8));
  const auto res = ctr::prove(bad, g, {{"pay", 184}});
  EXPECT_EQ(res.verdict, Verdict::kUnproved);
  EXPECT_TRUE(any_reason_contains(res, "coordinate stride")) << res.reasons.front();
}

TEST(ContractProver, DisjointBoxTilesProved) {
  // 4x4x4 tiles over a 16x12x8 field on a 4x3x2 grid.
  const Geom g{24, 4, 3, 2};
  const auto con = ctr::contract(ctr::writes_box("f", ctr::bx() * 4, 4, ctr::by() * 4, 4,
                                                 ctr::bz() * 4, 4, 16, 12, 8));
  EXPECT_TRUE(ctr::prove(con, g, {{"f", 16 * 12 * 8}}).proved());
}

TEST(ContractProver, OverlappingBoxTilesRejected) {
  // x span 5 with x stride 4: neighbouring tiles share a plane.
  const Geom g{24, 4, 3, 2};
  const auto con = ctr::contract(ctr::writes_box("f", ctr::bx() * 4, 5, ctr::by() * 4, 4,
                                                 ctr::bz() * 4, 4, 16, 12, 8));
  const auto res = ctr::prove(con, g, {{"f", 16 * 12 * 8}});
  EXPECT_EQ(res.verdict, Verdict::kUnproved);
  EXPECT_TRUE(any_reason_contains(res, "box x-stride 4 < span 5")) << res.reasons.front();
}

TEST(ContractProver, BoxExtentMismatchRejected) {
  const Geom g{24, 4, 3, 2};
  const auto con = ctr::contract(ctr::writes_box("f", ctr::bx() * 4, 4, ctr::by() * 4, 4,
                                                 ctr::bz() * 4, 4, 16, 12, 8));
  const auto res = ctr::prove(con, g, {{"f", 999}});
  EXPECT_EQ(res.verdict, Verdict::kUnproved);
  EXPECT_TRUE(any_reason_contains(res, "box extents do not cover"));
}

// ---------------------------------------------------------------------------
// Dynamic cross-validation: a wrong (under-declared) contract must be caught
// by the interval tier even though the prover was happy with it.
// ---------------------------------------------------------------------------

TEST(ContractDynamic, UnderDeclaredContractFailsLoudly) {
  chk::ScopedMode guard(chk::Mode::kInterval);
  // The contract promises 16-element tiles at stride 32; the kernel actually
  // writes 20.  The extra 4 elements race with nothing (the tiles still
  // don't meet) and stay in bounds, so only the contract check can object.
  std::vector<std::uint32_t> out(64, 0);
  chk::launch("seeded_underdeclared", 2,
              chk::bufs(chk::out(std::span<std::uint32_t>(out), "out")),
              ctr::contract(ctr::writes("out", ctr::b() * 32, 16)),
              [](std::size_t b, const auto& v) {
    for (std::size_t i = 0; i < 20; ++i) v[b * 32 + i] = static_cast<std::uint32_t>(b);
  });
  const auto& report = chk::current_report();
  ASSERT_FALSE(report.contract_mismatches.empty()) << chk::report_text();
  EXPECT_FALSE(report.clean());
  const auto& f = report.contract_mismatches.front();
  EXPECT_EQ(f.kernel, "seeded_underdeclared");
  EXPECT_EQ(f.buffer, "out");
  EXPECT_TRUE(f.is_write);
  // The finding carries the whole escaping observed interval: the block's
  // coalesced 20-element write, 4 elements of which the contract never
  // declared.
  EXPECT_EQ(f.elem_lo, f.block * 32);
  EXPECT_EQ(f.elem_hi, f.block * 32 + 20);
  EXPECT_TRUE(report.races.empty()) << chk::report_text();
  EXPECT_TRUE(report.oob.empty()) << chk::report_text();
}

TEST(ContractDynamic, AccurateContractStaysClean) {
  chk::ScopedMode guard(chk::Mode::kInterval);
  std::vector<std::uint32_t> out(64, 0);
  chk::launch("accurate_tiles", 2,
              chk::bufs(chk::out(std::span<std::uint32_t>(out), "out")),
              ctr::contract(ctr::writes("out", ctr::b() * 32, 20)),
              [](std::size_t b, const auto& v) {
    for (std::size_t i = 0; i < 20; ++i) v[b * 32 + i] = static_cast<std::uint32_t>(b);
  });
  EXPECT_TRUE(chk::current_report().clean()) << chk::report_text();
}

// ---------------------------------------------------------------------------
// Word mode shadows every launch: a verdict is evidence for `szp analyze`
// and changes nothing the checker runs.
// ---------------------------------------------------------------------------

namespace {

void tiled_fill(const char* kernel, std::vector<std::uint32_t>& out, bool proved_contract) {
  constexpr std::size_t kTile = 256;
  const std::size_t blocks = out.size() / kTile;
  auto con = proved_contract
                 ? ctr::contract(ctr::writes("out", ctr::b() * static_cast<std::int64_t>(kTile),
                                             static_cast<std::int64_t>(kTile)))
                 : ctr::contract(ctr::writes_dyn("out"));
  chk::launch(kernel, blocks, chk::bufs(chk::out(std::span<std::uint32_t>(out), "out")), con,
              [](std::size_t b, const auto& v) {
    for (std::size_t i = 0; i < kTile; ++i) v[b * kTile + i] = static_cast<std::uint32_t>(b);
  });
}

/// Fill `out` in word mode at full rate; every written word is shadowed
/// whatever the verdict, which must be `want`.
void expect_word_shadow(const char* kernel, bool proved_contract, Verdict want) {
  chk::ScopedMode guard(chk::Mode::kWord);
  chk::ScopedWordSample every_word(1);
  ctr::reset_registry();
  std::vector<std::uint32_t> out(1024, 0);
  tiled_fill(kernel, out, proved_contract);
  const auto& report = chk::current_report();
  EXPECT_TRUE(report.clean()) << chk::report_text();
  EXPECT_EQ(report.shadow_words, out.size());
  const auto snap = ctr::registry_snapshot();
  const auto* v = find_verdict(snap, kernel);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->verdict, want);
  EXPECT_EQ(v->launches, 1u);
}

}  // namespace

TEST(ContractWordMode, ProvedContractRunsTheWordShadow) {
  expect_word_shadow("word_proved", true, Verdict::kProved);
}

TEST(ContractWordMode, UnprovedContractRunsTheWordShadow) {
  expect_word_shadow("word_unproved", false, Verdict::kUnproved);
}

// ---------------------------------------------------------------------------
// Registry verdicts of the real kernels: gap-strided Huffman in 1-D grids,
// ZFP's lifted-window families in 1-D and 3-D grids.
// ---------------------------------------------------------------------------

TEST(ContractRegistry, HuffmanGapStrideVerdicts) {
  chk::ScopedMode guard(chk::Mode::kInterval);
  ctr::reset_registry();
  std::vector<quant_t> syms(20000);
  for (std::size_t i = 0; i < syms.size(); ++i) {
    syms[i] = static_cast<quant_t>(512 + (i % 7) - 3);
  }
  std::vector<std::uint64_t> freq(1024, 0);
  for (const quant_t s : syms) ++freq[s];
  const auto book = HuffmanCodebook::build(freq);
  for (const std::uint32_t gap : {0u, 256u}) {
    const auto enc = huffman_encode(syms, book, 1024, HuffmanEncVariant::kOptimized, gap);
    const auto dec = huffman_decode(enc, book);
    ASSERT_EQ(dec.symbols.size(), syms.size());
  }
  EXPECT_TRUE(chk::current_report().clean()) << chk::report_text();

  const auto snap = ctr::registry_snapshot();
  const auto* sizes = find_verdict(snap, "huffman_encode/chunk_sizes");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->verdict, Verdict::kProved);
  // Decode writes collapse to affine sub-block windows in both the plain and
  // the gap-strided configuration — proved across all four launches.
  const auto* decode = find_verdict(snap, "huffman_decode");
  ASSERT_NE(decode, nullptr);
  EXPECT_EQ(decode->verdict, Verdict::kProved);
  EXPECT_GE(decode->launches, 2u);
  // Deflate emits variable-length bitstreams: honestly unproved.
  const auto* deflate = find_verdict(snap, "huffman_encode/deflate");
  ASSERT_NE(deflate, nullptr);
  EXPECT_EQ(deflate->verdict, Verdict::kUnproved);
  EXPECT_NE(deflate->reason.find("data-dependent"), std::string::npos) << deflate->reason;
}

TEST(ContractRegistry, ZfpVerdictsIn1DAnd3DGrids) {
  chk::ScopedMode guard(chk::Mode::kInterval);
  ctr::reset_registry();
  {
    std::vector<float> field(9 * 9 * 9);
    for (std::size_t i = 0; i < field.size(); ++i) {
      field[i] = std::sin(0.05f * static_cast<float>(i));
    }
    const auto c = zfp::zfp_compress(field, Extents::d3(9, 9, 9), {});
    const auto d = zfp::zfp_decompress(c.bytes);
    ASSERT_EQ(d.data.size(), field.size());
  }
  {
    std::vector<float> line(100);
    for (std::size_t i = 0; i < line.size(); ++i) {
      line[i] = static_cast<float>(i) * 0.25f;
    }
    const auto c = zfp::zfp_compress(line, Extents::d1(100), {});
    const auto d = zfp::zfp_decompress(c.bytes);
    ASSERT_EQ(d.data.size(), line.size());
  }
  EXPECT_TRUE(chk::current_report().clean()) << chk::report_text();

  const auto snap = ctr::registry_snapshot();
  for (const char* kernel : {"zfp_compress", "zfp_decompress"}) {
    const auto* v = find_verdict(snap, kernel);
    ASSERT_NE(v, nullptr) << kernel;
    EXPECT_EQ(v->verdict, Verdict::kProved)
        << kernel << ": " << v->reason;
    EXPECT_GE(v->launches, 2u) << kernel;  // one 3-D grid, one 1-D grid
  }
}

TEST(ContractRegistry, VerdictTableIsDeterministicAndSorted) {
  ctr::reset_registry();
  std::vector<std::uint32_t> out(64, 0);
  {
    chk::ScopedMode guard(chk::Mode::kInterval);
    chk::launch("zz_last", 2, chk::bufs(chk::out(std::span<std::uint32_t>(out), "out")),
                ctr::contract(ctr::writes("out", ctr::b() * 32, 32)),
                [](std::size_t b, const auto& v) { v[b * 32] = 1; });
    chk::launch("aa_first", 2, chk::bufs(chk::out(std::span<std::uint32_t>(out), "out")),
                ctr::contract(ctr::writes_dyn("out")),
                [](std::size_t b, const auto& v) { v[b * 32] = 1; });
  }
  const std::string table = ctr::verdict_table_text();
  EXPECT_EQ(table, ctr::verdict_table_text());  // pure snapshot, stable
  const auto aa = table.find("aa_first");
  const auto zz = table.find("zz_last");
  ASSERT_NE(aa, std::string::npos);
  ASSERT_NE(zz, std::string::npos);
  EXPECT_LT(aa, zz);
  EXPECT_NE(table.find("2 kernel(s): 1 proved, 1 unproved-fallback-dynamic\n"), std::string::npos)
      << table;
}

}  // namespace
