// Tier-2 checking (word-granular shadow memory + lane model) and schedule
// fuzzing: seeded intra-block hazards that interval mode cannot see must be
// flagged in word mode, benign striding and barrier-ordered reuse must not
// be, seeded order-dependent kernels must be caught by the schedule fuzzer,
// and full pipelines must run clean (zero false positives) under both.
#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <set>
#include <sstream>
#include <vector>

#include "baseline/cusz_ref.hh"
#include "core/compressor.hh"
#include "core/huffman/codebook.hh"
#include "core/huffman/codec.hh"
#include "core/io/io.hh"
#include "core/metrics.hh"
#include "lossless/lzh.hh"
#include "lossless/lzr.hh"
#include "sim/check.hh"
#include "sim/prove.hh"
#include "tools/cli.hh"
#include "zfp/zfp.hh"

namespace {

using namespace szp;
namespace chk = sim::checked;
namespace ctr = sim::contract;

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

/// Two lanes of one block write the same word in the same barrier epoch —
/// the canonical intra-block hazard (e.g. a mis-assigned warp-shuffle slot).
template <typename View>
void seeded_intra_block_ww(std::size_t, const View& v) {
  chk::this_thread(0);
  v[5] = 1;
  chk::this_thread(1);
  v[5] = 2;  // lane 1 collides with lane 0's write, no barrier between
}

TEST(SimCheckWord, IntervalModeMissesIntraBlockHazard) {
  chk::ScopedMode guard(chk::Mode::kInterval);
  std::vector<int> buf(16, 0);
  chk::launch("seeded_intra_ww", 1, chk::bufs(chk::out(std::span<int>(buf), "buf")),
              ctr::contract(ctr::writes_dyn("buf")),
              [](std::size_t b, const auto& v) { seeded_intra_block_ww(b, v); });
  // One block: interval footprints cannot conflict with themselves.
  EXPECT_TRUE(chk::current_report().clean()) << chk::report_text();
  EXPECT_EQ(chk::current_report().launches_checked, 1u);
}

TEST(SimCheckWord, WordModeCatchesIntraBlockHazard) {
  chk::ScopedMode guard(chk::Mode::kWord);
  std::vector<int> buf(16, 0);
  chk::launch("seeded_intra_ww", 1, chk::bufs(chk::out(std::span<int>(buf), "buf")),
              ctr::contract(ctr::writes_dyn("buf")),
              [](std::size_t b, const auto& v) { seeded_intra_block_ww(b, v); });
  const auto& report = chk::current_report();
  ASSERT_FALSE(report.hazards.empty()) << chk::report_text();
  const auto& h = report.hazards.front();
  EXPECT_EQ(h.kernel, "seeded_intra_ww");
  EXPECT_EQ(h.buffer, "buf");
  EXPECT_EQ(h.block, 0u);
  EXPECT_EQ(h.word, 5u);
  EXPECT_EQ(std::min(h.lane_a, h.lane_b), 0u);
  EXPECT_EQ(std::max(h.lane_a, h.lane_b), 1u);
  EXPECT_TRUE(h.write_write);
  EXPECT_TRUE(report.races.empty()) << chk::report_text();
}

TEST(SimCheckWord, ReadWriteHazardAcrossLanes) {
  chk::ScopedMode guard(chk::Mode::kWord);
  std::vector<int> buf(16, 0);
  chk::launch("seeded_intra_rw", 1, chk::bufs(chk::inout(std::span<int>(buf), "buf")),
              ctr::contract(ctr::updates_dyn("buf")),
              [](std::size_t, const auto& v) {
    chk::this_thread(0);
    v[3] = 7;
    chk::this_thread(1);
    [[maybe_unused]] const int x = v[3];  // lane 1 reads lane 0's word, same epoch
  });
  const auto& report = chk::current_report();
  ASSERT_FALSE(report.hazards.empty()) << chk::report_text();
  EXPECT_FALSE(report.hazards.front().write_write);
}

TEST(SimCheckWord, BenignStridingIsNotFlagged) {
  chk::ScopedMode guard(chk::Mode::kWord);
  // Classic strided access: lane l owns every 4th word — disjoint footprints
  // inside one epoch.  Racecheck would not flag this; neither must we.
  std::vector<int> buf(64, 0);
  chk::launch("benign_stride", 1, chk::bufs(chk::out(std::span<int>(buf), "buf")),
              ctr::contract(ctr::writes_dyn("buf")),
              [](std::size_t, const auto& v) {
    for (std::uint32_t lane = 0; lane < 4; ++lane) {
      chk::this_thread(lane);
      for (std::size_t i = lane; i < 64; i += 4) v[i] = static_cast<int>(lane);
    }
  });
  EXPECT_TRUE(chk::current_report().clean()) << chk::report_text();
}

TEST(SimCheckWord, BarrierOrdersAccessesAcrossEpochs) {
  chk::ScopedMode guard(chk::Mode::kWord);
  // Lane 0 writes, __syncthreads(), lane 1 reads the same word: ordered, not
  // a hazard — the pattern every staged shared-memory kernel relies on.
  std::vector<int> buf(16, 0);
  chk::launch("barrier_ordered", 1, chk::bufs(chk::inout(std::span<int>(buf), "buf")),
              ctr::contract(ctr::updates_dyn("buf")),
              [](std::size_t, const auto& v) {
    chk::this_thread(0);
    v[5] = 42;
    chk::barrier();
    chk::this_thread(1);
    v[6] = v[5] + 1;
  });
  EXPECT_TRUE(chk::current_report().clean()) << chk::report_text();
}

TEST(SimCheckWord, AtomicUpdatesFromDifferentLanesAreExempt) {
  chk::ScopedMode guard(chk::Mode::kWord);
  // Shared-memory histogram privatization: many lanes atomicAdd one bin.
  std::vector<std::uint32_t> bins(8, 0);
  chk::launch("atomic_bins", 1, chk::bufs(chk::inout(std::span<std::uint32_t>(bins), "bins")),
              ctr::contract(ctr::updates_dyn("bins")),
              [](std::size_t, const auto& v) {
    for (std::uint32_t lane = 0; lane < 8; ++lane) {
      chk::this_thread(lane);
      v.atomic_add(3, 1);
    }
  });
  EXPECT_TRUE(chk::current_report().clean()) << chk::report_text();
  EXPECT_EQ(bins[3], 8u);
}

TEST(SimCheckWord, WordModeStillFlagsCrossBlockRaces) {
  chk::ScopedMode guard(chk::Mode::kWord);
  std::vector<int> buf(64, 0);
  chk::launch("cross_block_ww", 2, chk::bufs(chk::out(std::span<int>(buf), "buf")),
              ctr::contract(ctr::writes_dyn("buf")),
              [](std::size_t b, const auto& v) { v[9] = static_cast<int>(b); });
  const auto& report = chk::current_report();
  ASSERT_FALSE(report.races.empty()) << chk::report_text();
  EXPECT_TRUE(report.hazards.empty());
  EXPECT_EQ(report.races.front().byte_lo, 9 * sizeof(int));
}

TEST(SimCheckWord, ProvedMultiBlockLaunchStillShadowsItsLanes) {
  // Each block writes its own 16-word window, so the contract proves
  // cross-block disjointness; the proof says nothing about the lanes inside
  // a block, and word mode must still report every block's collision.
  chk::ScopedMode guard(chk::Mode::kWord);
  ctr::reset_registry();
  constexpr std::size_t kTile = 16;
  constexpr std::size_t kBlocks = 4;
  std::vector<int> buf(kBlocks * kTile, 0);
  chk::launch("proved_lane_collision", kBlocks,
              chk::bufs(chk::out(std::span<int>(buf), "buf")),
              ctr::contract(ctr::writes("buf", ctr::b() * kTile, kTile)),
              [](std::size_t b, const auto& v) {
    chk::this_thread(0);
    v[b * kTile + 5] = 1;
    chk::this_thread(1);
    v[b * kTile + 5] = 2;
  });
  const auto verdicts = ctr::registry_snapshot();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts.front().verdict, ctr::Verdict::kProved) << verdicts.front().reason;
  const auto& report = chk::current_report();
  ASSERT_EQ(report.hazards.size(), kBlocks) << chk::report_text();
  for (std::size_t b = 0; b < kBlocks; ++b) {
    EXPECT_EQ(report.hazards[b].block, b);
    EXPECT_EQ(report.hazards[b].word, b * kTile + 5);
    EXPECT_TRUE(report.hazards[b].write_write);
  }
  EXPECT_TRUE(report.races.empty()) << chk::report_text();
}

TEST(SimCheckWord, HazardReportNamesLaneBufferAndWord) {
  chk::ScopedMode guard(chk::Mode::kWord);
  std::vector<int> buf(16, 0);
  chk::launch("named_hazard", 1, chk::bufs(chk::out(std::span<int>(buf), "cells")),
              ctr::contract(ctr::writes_dyn("cells")),
              [](std::size_t b, const auto& v) { seeded_intra_block_ww(b, v); });
  const std::string text = chk::report_text();
  EXPECT_NE(text.find("named_hazard"), std::string::npos) << text;
  EXPECT_NE(text.find("cells"), std::string::npos) << text;
  EXPECT_NE(text.find("intra-block hazard"), std::string::npos) << text;
  EXPECT_NE(text.find("lanes 0 and 1"), std::string::npos) << text;
  EXPECT_NE(text.find("word 5"), std::string::npos) << text;
}

// --------------------------------------------------------------------------
// Seeded hazards in the newly lane-annotated kernel shapes: the Huffman
// emit-chunk loop (gap-stride sub-block lanes sharing a chunk) and the ZFP
// block transform (row/column lift passes).  Each is the bug class the
// production annotations in huffman_encode / zfp.cc exist to catch; interval
// mode cannot see either (one block conflicts only with other blocks).
// --------------------------------------------------------------------------

/// Huffman emit with a seeded off-by-one in the gap-slot index: two
/// sub-block lanes of one chunk record their bit offset into the same gap
/// entry, no barrier between — cuSZ's coarse-chunk encoding bug class.
template <typename View>
void seeded_huffman_gap_clobber(const View& vgaps) {
  chk::this_thread(0);
  vgaps[2] = 10;  // sub-block 0 records its start bit...
  chk::this_thread(1);
  vgaps[2] = 20;  // ...and sub-block 1 lands on the same slot, same epoch
}

TEST(SimCheckWord, IntervalModeMissesHuffmanEmitChunkHazard) {
  chk::ScopedMode guard(chk::Mode::kInterval);
  std::vector<std::uint32_t> gaps(8, 0);
  chk::launch("seeded_huffman_gap", 1,
              chk::bufs(chk::out(std::span<std::uint32_t>(gaps), "gaps")),
              ctr::contract(ctr::writes_dyn("gaps")),
              [](std::size_t, const auto& v) { seeded_huffman_gap_clobber(v); });
  EXPECT_TRUE(chk::current_report().clean()) << chk::report_text();
}

TEST(SimCheckWord, WordModeCatchesHuffmanEmitChunkHazard) {
  chk::ScopedMode guard(chk::Mode::kWord);
  std::vector<std::uint32_t> gaps(8, 0);
  chk::launch("seeded_huffman_gap", 1,
              chk::bufs(chk::out(std::span<std::uint32_t>(gaps), "gaps")),
              ctr::contract(ctr::writes_dyn("gaps")),
              [](std::size_t, const auto& v) { seeded_huffman_gap_clobber(v); });
  const auto& report = chk::current_report();
  ASSERT_FALSE(report.hazards.empty()) << chk::report_text();
  const auto& h = report.hazards.front();
  EXPECT_EQ(h.buffer, "gaps");
  EXPECT_EQ(h.word, 2u);
  EXPECT_TRUE(h.write_write);
}

/// ZFP block transform with the inter-pass barrier missing: the row pass
/// writes one lane per row, then the column pass reads every row's words in
/// the SAME epoch — exactly what zfp.cc's transform annotations order with
/// chk::barrier().
template <typename View>
void seeded_zfp_plane_hazard(const View& v) {
  for (std::uint32_t y = 0; y < 4; ++y) {
    chk::this_thread(y);
    for (std::size_t x = 0; x < 4; ++x) v[y * 4 + x] = static_cast<std::int32_t>(y + x);
  }
  // Missing chk::barrier() here.
  for (std::uint32_t x = 0; x < 4; ++x) {
    chk::this_thread(x);
    std::int32_t acc = 0;
    for (std::size_t y = 0; y < 4; ++y) acc += v[y * 4 + x];  // reads other lanes' rows
    v[x] = acc;
  }
}

TEST(SimCheckWord, IntervalModeMissesZfpBlockPlaneHazard) {
  chk::ScopedMode guard(chk::Mode::kInterval);
  std::vector<std::int32_t> block(16, 0);
  chk::launch("seeded_zfp_plane", 1,
              chk::bufs(chk::inout(std::span<std::int32_t>(block), "block")),
              ctr::contract(ctr::updates_dyn("block")),
              [](std::size_t, const auto& v) { seeded_zfp_plane_hazard(v); });
  EXPECT_TRUE(chk::current_report().clean()) << chk::report_text();
}

TEST(SimCheckWord, WordModeCatchesZfpBlockPlaneHazard) {
  chk::ScopedMode guard(chk::Mode::kWord);
  std::vector<std::int32_t> block(16, 0);
  chk::launch("seeded_zfp_plane", 1,
              chk::bufs(chk::inout(std::span<std::int32_t>(block), "block")),
              ctr::contract(ctr::updates_dyn("block")),
              [](std::size_t, const auto& v) { seeded_zfp_plane_hazard(v); });
  const auto& report = chk::current_report();
  ASSERT_FALSE(report.hazards.empty()) << chk::report_text();
  EXPECT_EQ(report.hazards.front().buffer, "block");
}

TEST(SimCheckWord, HuffmanGapEncodeDecodeIsClean) {
  // The production encoder under word mode, gap arrays on: the sub-block
  // lane annotations must hold (lanes own disjoint symbols and gap slots,
  // the merge is barrier-ordered), so the launch reports nothing.
  std::vector<quant_t> syms(20000);
  for (std::size_t i = 0; i < syms.size(); ++i) {
    syms[i] = static_cast<quant_t>((i * 31 + i / 7) % 64);
  }
  std::vector<std::uint64_t> freq(64, 0);
  for (const auto s : syms) ++freq[s];
  const auto book = HuffmanCodebook::build(freq);

  chk::ScopedMode guard(chk::Mode::kWord);
  const auto enc = huffman_encode(syms, book, 1024, HuffmanEncVariant::kOptimized, 256);
  const auto dec = huffman_decode(enc, book);
  EXPECT_EQ(dec.symbols, syms);
  const auto& report = chk::current_report();
  EXPECT_GT(report.launches_checked, 0u);
  EXPECT_TRUE(report.clean()) << chk::report_text();
}

TEST(SimCheckWord, ZfpRoundTripIsClean) {
  // Rank 2 and rank 3 cover partial edge blocks (extents not multiples of
  // 4): the per-row gather lanes share clamped edge words read-only, which
  // must stay exempt.
  for (const Extents& ext : {Extents::d2(37, 22), Extents::d3(9, 10, 11)}) {
    const auto data = smooth_field(ext, 71);
    chk::ScopedMode guard(chk::Mode::kWord);
    const auto compressed = zfp::zfp_compress(data, ext, {});
    const auto restored = zfp::zfp_decompress(compressed.bytes);
    EXPECT_EQ(restored.data.size(), data.size());
    const auto& report = chk::current_report();
    EXPECT_GT(report.launches_checked, 0u);
    EXPECT_TRUE(report.clean()) << chk::report_text();
  }
}

// --------------------------------------------------------------------------
// Paged shadow memory.
// --------------------------------------------------------------------------

TEST(SimCheckWord, HazardsStraddlingAPageBoundaryAreCaught) {
  chk::ScopedMode guard(chk::Mode::kWord);
  // Words kShadowPageWords-1 and kShadowPageWords sit on opposite sides of
  // the first page boundary; both carry a seeded two-lane collision.
  const auto last = chk::kShadowPageWords - 1;
  std::vector<int> buf(3 * chk::kShadowPageWords, 0);
  chk::launch("page_straddle", 1, chk::bufs(chk::out(std::span<int>(buf), "buf")),
              ctr::contract(ctr::writes_dyn("buf")),
              [last](std::size_t, const auto& v) {
    chk::this_thread(0);
    v[last] = 1;
    v[last + 1] = 1;
    chk::this_thread(1);
    v[last] = 2;
    v[last + 1] = 2;
  });
  const auto& report = chk::current_report();
  ASSERT_EQ(report.hazards.size(), 2u) << chk::report_text();
  EXPECT_EQ(report.hazards[0].word, last);
  EXPECT_EQ(report.hazards[1].word, last + 1);
  // Only the two pages around the boundary were touched; the third backing
  // page of the buffer was never allocated.
  EXPECT_EQ(report.shadow_pages, 2u);
}

TEST(SimCheckWord, SparseAccessAllocatesFewPages) {
  chk::ScopedMode guard(chk::Mode::kWord);
  // 64 pages worth of buffer, three words touched: the paged shadow must
  // allocate only the three pages hit, not one slot per word.
  std::vector<int> buf(64 * chk::kShadowPageWords, 0);
  chk::launch("sparse_touch", 1, chk::bufs(chk::out(std::span<int>(buf), "buf")),
              ctr::contract(ctr::writes_dyn("buf")),
              [](std::size_t, const auto& v) {
    v[0] = 1;
    v[30 * chk::kShadowPageWords + 5] = 2;
    v[63 * chk::kShadowPageWords + 9] = 3;
  });
  const auto& report = chk::current_report();
  EXPECT_TRUE(report.clean()) << chk::report_text();
  EXPECT_EQ(report.shadow_words, 3u);
  EXPECT_EQ(report.shadow_pages, 3u);
  EXPECT_LT(report.shadow_pages * chk::kShadowPageWords, buf.size());
}

TEST(SimCheckWord, SamplingStillCatchesADenseRace) {
  chk::ScopedMode guard(chk::Mode::kWord);
  chk::ScopedWordSample sample(8);
  // Two lanes collide on 64 consecutive words: any conflict spanning >= N
  // consecutive words hits a tracked one under 1-in-N sampling.
  std::vector<int> buf(256, 0);
  chk::launch("dense_sampled", 1, chk::bufs(chk::out(std::span<int>(buf), "buf")),
              ctr::contract(ctr::writes_dyn("buf")),
              [](std::size_t, const auto& v) {
    chk::this_thread(0);
    for (std::size_t i = 0; i < 64; ++i) v[i] = 1;
    chk::this_thread(1);
    for (std::size_t i = 0; i < 64; ++i) v[i] = 2;
  });
  const auto& report = chk::current_report();
  EXPECT_FALSE(report.hazards.empty()) << chk::report_text();
  // 2 lanes x 64 words at 1-in-8 sampling: only 16 accesses recorded.
  EXPECT_EQ(report.shadow_words, 16u);
}

TEST(SimCheckWord, SamplingTradesAwayIsolatedHazards) {
  chk::ScopedMode guard(chk::Mode::kWord);
  chk::ScopedWordSample sample(8);
  // The documented trade-off: a collision on a single untracked word (5 is
  // not a multiple of 8) is invisible at sample 8.  Run full-rate to catch
  // isolated single-word hazards.
  std::vector<int> buf(16, 0);
  chk::launch("isolated_sampled", 1, chk::bufs(chk::out(std::span<int>(buf), "buf")),
              ctr::contract(ctr::writes_dyn("buf")),
              [](std::size_t b, const auto& v) { seeded_intra_block_ww(b, v); });
  EXPECT_TRUE(chk::current_report().clean()) << chk::report_text();
}

// --------------------------------------------------------------------------
// Schedule fuzzing.
// --------------------------------------------------------------------------

TEST(SimCheckFuzz, CatchesOrderDependentKernel) {
  chk::ScopedMode guard(chk::Mode::kOff);
  chk::ScopedFuzz fuzz(8);
  // Last-writer-wins: every block stores its own index into word 0, so the
  // final value is whichever block the schedule ran last — order-dependent
  // output that no footprint analysis can prove wrong.
  std::vector<int> buf(64, -1);
  chk::launch("seeded_order_dep", 64, chk::bufs(chk::inout(std::span<int>(buf), "buf")),
              ctr::contract(ctr::updates_dyn("buf")),
              [](std::size_t b, const auto& v) {
    v[b] = static_cast<int>(b);  // benign per-block cell
    v[0] = static_cast<int>(b);  // all blocks collide here
  });
  const auto& report = chk::current_report();
  EXPECT_EQ(report.launches_fuzzed, 1u);
  EXPECT_FALSE(report.schedule_diffs.empty()) << chk::report_text();
  EXPECT_EQ(report.schedule_diffs.front().kernel, "seeded_order_dep");
  EXPECT_EQ(report.schedule_diffs.front().buffer, "buf");
}

TEST(SimCheckFuzz, OrderInvariantKernelIsClean) {
  chk::ScopedMode guard(chk::Mode::kOff);
  chk::ScopedFuzz fuzz(8);
  std::vector<int> in(256, 3);
  std::vector<int> out(8, 0);
  chk::launch("order_invariant", 8,
              chk::bufs(chk::in(std::span<const int>(in), "in"),
                        chk::out(std::span<int>(out), "out")),
              ctr::contract(ctr::reads_dyn("in"), ctr::writes_dyn("out")),
              [](std::size_t b, const auto& vin, const auto& vout) {
    int acc = 0;
    for (std::size_t i = 0; i < 32; ++i) acc += vin[b * 32 + i];
    vout[b] = acc;
  });
  const auto& report = chk::current_report();
  EXPECT_EQ(report.launches_fuzzed, 1u);
  EXPECT_TRUE(report.schedule_diffs.empty()) << chk::report_text();
  for (int v : out) EXPECT_EQ(v, 96);
}

TEST(SimCheckFuzz, CatchesAxisOrderDependentKernel3d) {
  chk::ScopedMode guard(chk::Mode::kOff);
  chk::ScopedFuzz fuzz(1);  // 3-D grids auto-expand to the full 8-schedule repertoire
  // Horner accumulation with an injective per-block coefficient: the result
  // depends on the exact traversal sequence (non-commutative), so every
  // serial axis order yields a distinct value.  The grid corners are fixed
  // points of all six permutations — a last-writer scheme would miss most
  // of them; this does not.
  std::vector<std::uint64_t> acc(4, 0);
  chk::launch_3d("seeded_axis_dep", sim::Dim3{4, 3, 2},
                 chk::bufs(chk::inout(std::span<std::uint64_t>(acc), "acc")),
                 ctr::contract(ctr::updates_dyn("acc")),
                 [](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& v) {
    const std::uint64_t c = bx + 4ull * by + 16ull * bz;
    v[0] = v[0] * 3 + c;
  });
  const auto& report = chk::current_report();
  EXPECT_EQ(report.launches_fuzzed, 1u);
  ASSERT_FALSE(report.schedule_diffs.empty()) << chk::report_text();
  // The six serial axis traversals produce six distinct checksums; the
  // canonical run can match at most one of them, so at least five axis
  // orders must be reported — proof that all six were exercised.
  std::set<std::string> axis_orders;
  for (const auto& d : report.schedule_diffs) {
    EXPECT_EQ(d.kernel, "seeded_axis_dep");
    if (d.schedule.rfind("axis-order:", 0) == 0) axis_orders.insert(d.schedule);
  }
  EXPECT_GE(axis_orders.size(), 5u) << chk::report_text();
}

TEST(SimCheckFuzz, AxisOrderInvariant3dKernelIsClean) {
  chk::ScopedMode guard(chk::Mode::kOff);
  chk::ScopedFuzz fuzz(2);
  // Each block owns its own cell: all six axis orders (plus reversed,
  // serial) must reproduce the canonical bytes exactly.
  std::vector<std::uint64_t> out(24, 0);
  chk::launch_3d("axis_invariant", sim::Dim3{4, 3, 2},
                 chk::bufs(chk::out(std::span<std::uint64_t>(out), "out")),
                 ctr::contract(ctr::writes_dyn("out")),
                 [](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& v) {
    const std::size_t b = (bz * 3ull + by) * 4 + bx;
    v[b] = 100 + b;
  });
  const auto& report = chk::current_report();
  EXPECT_EQ(report.launches_fuzzed, 1u);
  EXPECT_TRUE(report.schedule_diffs.empty()) << chk::report_text();
  for (std::size_t b = 0; b < out.size(); ++b) EXPECT_EQ(out[b], 100 + b);
}

TEST(SimCheckFuzz, Lorenzo3dArchiveIsAxisOrderInvariant) {
  // The 3-D Lorenzo construct/reconstruct pipeline replayed under the full
  // 3-D repertoire: the archive must stay bit-identical, and decompression
  // must keep the error bound.
  const Extents ext = Extents::d3(18, 15, 13);
  const auto data = smooth_field(ext, 47);
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-3);

  chk::set_mode(chk::Mode::kOff);
  chk::set_fuzz_schedules(0);
  chk::reset();
  const auto canonical = Compressor(cfg).compress(data, ext);

  chk::ScopedMode guard(chk::Mode::kOff);
  chk::ScopedFuzz fuzz(8);
  const auto fuzzed = Compressor(cfg).compress(data, ext);
  const auto& report = chk::current_report();
  EXPECT_GT(report.launches_fuzzed, 0u);
  EXPECT_TRUE(report.schedule_diffs.empty()) << chk::report_text();
  EXPECT_EQ(fuzzed.bytes, canonical.bytes);

  const auto restored = Compressor::decompress(fuzzed.bytes);
  const auto m = compare_fields(data, restored.data);
  EXPECT_LT(m.max_abs_error, fuzzed.stats.eb_abs);
}

TEST(SimCheckFuzz, RestoresCanonicalResultAfterReplays) {
  chk::ScopedMode guard(chk::Mode::kOff);
  chk::ScopedFuzz fuzz(4);
  std::vector<int> out(16, 0);
  chk::launch("restore_post", 4, chk::bufs(chk::out(std::span<int>(out), "out")),
              ctr::contract(ctr::writes_dyn("out")),
              [](std::size_t b, const auto& v) {
    for (std::size_t i = 0; i < 4; ++i) v[b * 4 + i] = static_cast<int>(b + 1);
  });
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(out[i], static_cast<int>(i / 4 + 1));
}

// --------------------------------------------------------------------------
// Zero false positives and bit-stability: full pipelines.
// --------------------------------------------------------------------------

class SimCheckWordRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SimCheckWordRoundTrip, CompressDecompressHasNoFindings) {
  const int rank = GetParam();
  const Extents ext = rank == 1   ? Extents::d1(5000)
                      : rank == 2 ? Extents::d2(60, 70)
                                  : Extents::d3(17, 18, 19);
  const auto data = smooth_field(ext, static_cast<std::uint32_t>(rank));

  chk::ScopedMode guard(chk::Mode::kWord);
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

INSTANTIATE_TEST_SUITE_P(Ranks, SimCheckWordRoundTrip, ::testing::Values(1, 2, 3));

TEST(SimCheckWord, BaselineCompressorRoundTripClean) {
  const Extents ext = Extents::d2(48, 52);
  const auto data = smooth_field(ext, 21);
  chk::ScopedMode guard(chk::Mode::kWord);
  baseline::CuszConfig cfg;
  cfg.eb = ErrorBound::relative(1e-3);
  const baseline::CuszCompressor comp(cfg);
  const auto compressed = comp.compress(data, ext);
  const auto restored = baseline::CuszCompressor::decompress(compressed.bytes);
  const auto& report = chk::current_report();
  EXPECT_GT(report.launches_checked, 0u);
  EXPECT_TRUE(report.clean()) << chk::report_text();
  const auto m = compare_fields(data, restored.data);
  EXPECT_LT(m.max_abs_error, compressed.stats.eb_abs);
}

TEST(SimCheckWord, LosslessCodecsRoundTripClean) {
  // Compressible byte stream through both LZ77 entropy stages.
  std::vector<std::uint8_t> input(20000);
  std::mt19937 rng(5);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>((i / 64) % 7 == 0 ? 0 : rng() % 8);
  }
  chk::ScopedMode guard(chk::Mode::kWord);
  const auto lzh_bytes = lossless::lzh_compress(input);
  EXPECT_EQ(lossless::lzh_decompress(lzh_bytes), input);
  const auto lzr_bytes = lossless::lzr_compress(input);
  EXPECT_EQ(lossless::lzr_decompress(lzr_bytes), input);
  const auto& report = chk::current_report();
  EXPECT_GT(report.launches_checked, 0u);
  EXPECT_TRUE(report.clean()) << chk::report_text();
}

TEST(SimCheckFuzz, CompressorArchivesAreScheduleInvariant) {
  const Extents ext = Extents::d2(64, 80);
  const auto data = smooth_field(ext, 31);
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-3);

  chk::set_mode(chk::Mode::kOff);
  chk::set_fuzz_schedules(0);
  chk::reset();
  const auto canonical = Compressor(cfg).compress(data, ext);

  chk::ScopedMode guard(chk::Mode::kOff);
  chk::ScopedFuzz fuzz(8);
  const auto fuzzed = Compressor(cfg).compress(data, ext);
  const auto& report = chk::current_report();
  EXPECT_GT(report.launches_fuzzed, 0u);
  EXPECT_TRUE(report.schedule_diffs.empty()) << chk::report_text();
  // Every registered kernel replayed under 8 perturbed schedules without
  // diverging, and the final archive is bit-identical to the unfuzzed one.
  EXPECT_EQ(fuzzed.bytes, canonical.bytes);

  const auto restored = Compressor::decompress(fuzzed.bytes);
  const auto m = compare_fields(data, restored.data);
  EXPECT_LT(m.max_abs_error, fuzzed.stats.eb_abs);
}

TEST(SimCheckWordCli, WordAndFuzzFlagsReportClean) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "szp_sim_check_word_cli";
  fs::create_directories(dir);
  const Extents ext = Extents::d1(4096);
  const auto data = smooth_field(ext, 13);
  io::write_file(dir / "in.f32", {reinterpret_cast<const std::uint8_t*>(data.data()),
                                   data.size() * sizeof(float)});
  {
    std::ostringstream out, err;
    const int rc = szp::cli::run({"compress", "-i", (dir / "in.f32").string(), "-o",
                                  (dir / "out.szp").string(), "-d", "4096", "--eb", "1e-3",
                                  "--check=word"},
                                 out, err);
    EXPECT_EQ(rc, 0) << err.str() << out.str();
    EXPECT_NE(out.str().find("no violations detected"), std::string::npos) << out.str();
  }
  {
    std::ostringstream out, err;
    const int rc = szp::cli::run({"compress", "-i", (dir / "in.f32").string(), "-o",
                                  (dir / "out.szp").string(), "-d", "4096", "--eb", "1e-3",
                                  "--fuzz-schedule=2"},
                                 out, err);
    EXPECT_EQ(rc, 0) << err.str() << out.str();
    EXPECT_NE(out.str().find("schedule-fuzzed"), std::string::npos) << out.str();
  }
  fs::remove_all(dir);
}

}  // namespace
