// Unit tests for histogram, reduce_by_key (RLE backend), the launcher, the
// sparse scatter and the huge-page rule for large buffers in the
// simulated-GPU substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/compressor.hh"
#include "core/predictor/product.hh"
#include "core/workspace.hh"
#include "scoped_threads.hh"
#include "sim/aligned.hh"
#include "sim/check.hh"
#include "sim/histogram.hh"
#include "sim/launch.hh"
#include "sim/reduce_by_key.hh"
#include "sim/sparse.hh"

namespace {

using szp::sim::device_histogram;
using szp::sim::expand_runs;
using szp::sim::reduce_by_key;
using szp::sim::scatter_add;

TEST(DeviceHistogram, MatchesNaiveCount) {
  std::mt19937 rng(1);
  std::vector<std::uint16_t> data(100000);
  for (auto& x : data) x = static_cast<std::uint16_t>(rng() % 300);

  const auto bins = device_histogram<std::uint16_t>(data, 300, 1024);

  std::vector<std::uint64_t> expected(300, 0);
  for (const auto x : data) ++expected[x];
  EXPECT_EQ(bins, expected);
}

TEST(DeviceHistogram, IgnoresOutOfRangeAndHandlesEmpty) {
  std::vector<std::uint16_t> data{5, 500, 5};
  const auto bins = device_histogram<std::uint16_t>(data, 10);
  EXPECT_EQ(bins[5], 2u);
  std::uint64_t total = 0;
  for (const auto b : bins) total += b;
  EXPECT_EQ(total, 2u);  // the 500 is dropped

  const auto empty = device_histogram<std::uint16_t>(std::vector<std::uint16_t>{}, 4);
  EXPECT_EQ(empty, std::vector<std::uint64_t>(4, 0));
}

// Codes where one bin dominates, the shape of a smooth field's quant-codes:
// a `share` of them in bin capacity/2, the rest uniform over a range a
// quarter wider than the capacity, so some fall past it and are dropped.
std::vector<std::uint16_t> skewed_codes(std::size_t n, std::uint32_t capacity, double share) {
  std::mt19937 rng(static_cast<std::uint32_t>(n + capacity));
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const std::uint32_t spread = std::min<std::uint32_t>(capacity + capacity / 4 + 1, 65536);
  std::vector<std::uint16_t> codes(n);
  for (auto& c : codes) {
    c = static_cast<std::uint16_t>(coin(rng) < share ? capacity / 2 : rng() % spread);
  }
  return codes;
}

std::vector<std::uint64_t> naive_bins(const std::vector<std::uint16_t>& codes,
                                      std::size_t capacity) {
  std::vector<std::uint64_t> bins(capacity, 0);
  for (const auto c : codes) {
    if (c < capacity) ++bins[c];
  }
  return bins;
}

/// Every size around the 2^16-code tile at every capacity, for codes 95% in
/// one bin and for codes all in one bin: `check` gets the codes, the
/// capacity and the expected bins.
template <typename Check>
void for_each_histogram_case(const Check& check) {
  for (const std::uint32_t capacity : {2u, 1024u, 65536u}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{65535}, std::size_t{65536},
                                std::size_t{65537}, std::size_t{4 * 65536 + 3}}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + ", " + std::to_string(n) + " codes");
      const auto skewed = skewed_codes(n, capacity, 0.95);
      check(skewed, capacity, naive_bins(skewed, capacity));
      const std::vector<std::uint16_t> equal(n, static_cast<std::uint16_t>(capacity / 2));
      check(equal, capacity, naive_bins(equal, capacity));
    }
  }
}

TEST(DeviceHistogram, OneDominantBinMatchesNaiveCountAtEveryThreadCount) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const szp::test::ScopedThreads team(threads);
    for_each_histogram_case([](const std::vector<std::uint16_t>& codes, std::uint32_t capacity,
                               const std::vector<std::uint64_t>& want) {
      EXPECT_EQ(device_histogram<std::uint16_t>(codes, capacity), want);
    });
  }
}

TEST(DeviceHistogram, WordCheckedRunIsClean) {
  // Word granularity models each lane of a tile: the private-bin updates
  // must stay atomics from their own lanes, and the merge must read only
  // what its contract declares.
  namespace chk = szp::sim::checked;
  const chk::ScopedMode guard(chk::Mode::kWord);
  for_each_histogram_case([](const std::vector<std::uint16_t>& codes, std::uint32_t capacity,
                             const std::vector<std::uint64_t>& want) {
    EXPECT_EQ(device_histogram<std::uint16_t>(codes, capacity), want);
  });
  EXPECT_TRUE(chk::current_report().clean()) << chk::report_text();
  EXPECT_GT(chk::current_report().launches_checked, 0u);
  EXPECT_GT(chk::current_report().shadow_words, 0u);
}

std::vector<std::uint16_t> runs_sequence(std::uint32_t seed, std::size_t nruns,
                                         std::uint64_t max_run) {
  std::mt19937 rng(seed);
  std::vector<std::uint16_t> seq;
  std::uint16_t prev = 0xffff;
  for (std::size_t r = 0; r < nruns; ++r) {
    std::uint16_t v;
    do {
      v = static_cast<std::uint16_t>(rng() % 16);
    } while (v == prev);
    prev = v;
    const std::uint64_t len = 1 + rng() % max_run;
    seq.insert(seq.end(), len, v);
  }
  return seq;
}

// Tile size sweep: runs straddling tile boundaries must be stitched.
class ReduceByKeyTile : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReduceByKeyTile, RoundTripsAndRunsAreMaximal) {
  const auto seq = runs_sequence(42, 200, 37);
  const auto runs = reduce_by_key<std::uint16_t, std::uint64_t>(seq, GetParam());

  // Maximality: no two adjacent runs share a key.
  for (std::size_t r = 1; r < runs.keys.size(); ++r) {
    EXPECT_NE(runs.keys[r], runs.keys[r - 1]) << "r=" << r;
  }
  // Round trip.
  const auto expanded = expand_runs(std::span<const std::uint16_t>(runs.keys),
                                    std::span<const std::uint64_t>(runs.counts));
  EXPECT_EQ(expanded, seq);
}

INSTANTIATE_TEST_SUITE_P(TileSizes, ReduceByKeyTile, ::testing::Values(1, 2, 16, 1024, 1 << 20));

TEST(LaunchBlocks, ZeroIterationGridIsANoOp) {
  // Regression: a zero-block grid used to enter the OpenMP parallel region
  // (spinning up a whole team for nothing); it must early-return like the
  // single-block fast path, in every launcher variant.
  int calls = 0;
  szp::sim::launch_blocks(0, [&](std::size_t) { ++calls; });
  szp::sim::launch_blocks_3d({0, 4, 4}, [&](std::uint32_t, std::uint32_t, std::uint32_t) {
    ++calls;
  });
  szp::sim::launch_blocks_in_order({}, true, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(LaunchBlocks, NestedLaunchRunsInlineOneLevel) {
  // A kernel launched from inside a worker of an active parallel region
  // must execute its whole grid inline on the calling thread (explicit
  // one-level fan-out), still visiting every block exactly once.
  std::vector<int> outer_seen(3, 0);
  std::vector<int> inner_total(3, 0);
  szp::sim::launch_blocks(3, [&](std::size_t b) {
    outer_seen[b] += 1;
    // inner_total[b] is unsynchronized on purpose: if the inner grid spawned
    // a nested team these increments would race (and the tsan leg would
    // flag it); inline execution keeps them on one thread.
    szp::sim::launch_blocks(8, [&](std::size_t) { inner_total[b] += 1; });
  });
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(outer_seen[b], 1);
    EXPECT_EQ(inner_total[b], 8);
  }
}

TEST(LaunchBlocks, TeamNeverExceedsTheGrid) {
#ifdef _OPENMP
  // A grid of n blocks runs on at most n threads: a wider team would only
  // fork threads that find no block to run.
  const szp::test::ScopedThreads threads(4);
  for (const std::size_t grid : {2u, 3u}) {
    std::vector<int> team(grid, 0);
    szp::sim::launch_blocks(grid, [&](std::size_t b) { team[b] = omp_get_num_threads(); });
    for (const int t : team) EXPECT_LE(static_cast<std::size_t>(t), grid) << grid << " blocks";
  }
#else
  GTEST_SKIP() << "built without OpenMP: every launch runs on one thread";
#endif
}

TEST(ReduceByKey, SingleRunAcrossAllTiles) {
  std::vector<std::uint16_t> seq(10000, 7);
  const auto runs = reduce_by_key<std::uint16_t, std::uint64_t>(seq, 64);
  ASSERT_EQ(runs.keys.size(), 1u);
  EXPECT_EQ(runs.keys[0], 7u);
  EXPECT_EQ(runs.counts[0], 10000u);
}

TEST(ReduceByKey, EmptyInput) {
  const auto runs = reduce_by_key<std::uint16_t, std::uint64_t>(std::vector<std::uint16_t>{});
  EXPECT_TRUE(runs.keys.empty());
  EXPECT_TRUE(runs.counts.empty());
}

TEST(DenseToSparse, ScatterAddRoundTrips) {
  std::mt19937 rng(4);
  std::vector<std::int32_t> dense(10000, 0);
  szp::sim::SparseVector<std::int32_t> sparse;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (rng() % 50 == 0) {
      dense[i] = static_cast<std::int32_t>(rng() % 2000) - 1000;
      sparse.indices.push_back(i);
      sparse.values.push_back(dense[i]);
    }
  }

  std::vector<std::int32_t> rebuilt(dense.size(), 0);
  scatter_add(sparse, std::span<std::int32_t>(rebuilt));
  EXPECT_EQ(rebuilt, dense);
}

// --- Huge pages for large dense buffers (sim/aligned.hh) --------------------

// Sparse buffers never take the advice: a huge page would make 2 MiB
// resident for each 4 KiB they touch.  Neither allocator calls
// advise_huge_pages.
static_assert(std::is_same_v<decltype(szp::PredictorProduct::outlier_slots)::allocator_type,
                             std::allocator<szp::OutlierSlot>>);
static_assert(std::is_same_v<decltype(szp::Workspace::rans_stream)::allocator_type,
                             szp::sim::DefaultInitAllocator<std::uint8_t>>);

constexpr std::uintptr_t kHugePage = szp::sim::kHugePage;

/// Without transparent huge pages in the kernel the advice fails, and only
/// the alignment can be checked.
bool kernel_has_thp() {
  return std::filesystem::exists("/sys/kernel/mm/transparent_hugepage/enabled");
}

/// Whether the mapping in /proc/self/smaps that holds `p` lists `flag` in
/// its VmFlags.
bool mapping_has_flag(const void* p, const std::string& flag) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool holds = false;
  while (std::getline(smaps, line)) {
    std::istringstream fields(line);
    std::string first;
    fields >> first;
    const std::size_t dash = first.find('-');
    const bool header = dash != std::string::npos &&
                        first.find_first_not_of("0123456789abcdef-") == std::string::npos;
    if (header) {
      const std::uintptr_t lo = std::stoull(first.substr(0, dash), nullptr, 16);
      const std::uintptr_t hi = std::stoull(first.substr(dash + 1), nullptr, 16);
      holds = lo <= addr && addr < hi;
    } else if (holds && first == "VmFlags:") {
      for (std::string f; fields >> f;) {
        if (f == flag) return true;
      }
      return false;
    }
  }
  return false;
}

TEST(HugePages, LargeDeviceVectorIsAlignedAndAdvised) {
  const szp::sim::device_vector<szp::quant_t> codes(std::size_t{1} << 21);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(codes.data()) % kHugePage, 0u);
  if (!kernel_has_thp()) GTEST_SKIP() << "kernel without transparent huge pages";
  EXPECT_TRUE(mapping_has_flag(codes.data(), "hg"));
}

TEST(HugePages, SmallDeviceVectorStaysCacheLineAligned) {
  const szp::sim::device_vector<szp::quant_t> codes(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(codes.data()) % szp::sim::kCacheLine, 0u);
}

TEST(HugePages, OneShotDecodeAdvisesTheField) {
  const std::size_t n = std::size_t{1} << 22;
  std::vector<float> field(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto x = static_cast<float>(i);
    field[i] = std::sin(x * 1e-3f) + 0.25f * std::cos(x * 0.37f);
  }
  const szp::Compressed archive = szp::Compressor{}.compress(field, szp::Extents::d1(n));
  const szp::Decompressed out = szp::Compressor::decompress(archive.bytes);
  ASSERT_EQ(out.data.size(), n);
  const auto first = (reinterpret_cast<std::uintptr_t>(out.data.data()) + kHugePage - 1) &
                     ~(kHugePage - 1);
  ASSERT_LE(first + kHugePage, reinterpret_cast<std::uintptr_t>(out.data.data() + n));
  if (!kernel_has_thp()) GTEST_SKIP() << "kernel without transparent huge pages";
  EXPECT_TRUE(mapping_has_flag(reinterpret_cast<const void*>(first), "hg"));
}

}  // namespace
