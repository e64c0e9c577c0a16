// Compressibility-analysis tests: entropy/redundancy bounds, madogram
// smoothness, and the RLE-vs-VLE workflow selector (paper §III-B).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/analysis/entropy.hh"
#include "core/analysis/madogram.hh"
#include "core/analysis/selector.hh"

namespace {

using namespace szp;

TEST(Entropy, UniformDistributionHitsLog2N) {
  std::vector<std::uint64_t> freq(256, 100);
  const auto s = entropy_stats(freq);
  EXPECT_NEAR(s.entropy_bits, 8.0, 1e-12);
  EXPECT_NEAR(s.p1, 1.0 / 256.0, 1e-12);
  EXPECT_EQ(s.total, 25600u);
}

TEST(Entropy, SingleSymbolIsZeroEntropy) {
  std::vector<std::uint64_t> freq(16, 0);
  freq[3] = 500;
  const auto s = entropy_stats(freq);
  EXPECT_EQ(s.entropy_bits, 0.0);
  EXPECT_EQ(s.p1, 1.0);
  EXPECT_EQ(s.top_symbol, 3u);
  // R- = 1 - H(1,0) = 1, so the ⟨b⟩ lower bound is 1 bit — Huffman's floor.
  EXPECT_DOUBLE_EQ(s.avg_bits_lower(), 1.0);
}

TEST(Entropy, EmptyHistogram) {
  std::vector<std::uint64_t> freq(8, 0);
  const auto s = entropy_stats(freq);
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.entropy_bits, 0.0);
}

TEST(Entropy, RedundancyBoundsBehaveAsPublished) {
  // p1 = 0.5: R- = 1 - H(0.5) = 0; R+ = 0.586.
  std::vector<std::uint64_t> freq{50, 25, 25};
  const auto s = entropy_stats(freq);
  EXPECT_NEAR(s.p1, 0.5, 1e-12);
  EXPECT_NEAR(s.redundancy_lower, 0.0, 1e-12);
  EXPECT_NEAR(s.redundancy_upper, 0.586, 1e-12);

  // Below the Johnsen threshold (p1 <= 0.4) the lower bound is 0.
  std::vector<std::uint64_t> flat{30, 30, 40};
  EXPECT_EQ(entropy_stats(flat).redundancy_lower, 0.0);
}

TEST(BinaryEntropy, KnownValues) {
  EXPECT_DOUBLE_EQ(binary_entropy(0.5), 1.0);
  EXPECT_EQ(binary_entropy(0.0), 0.0);
  EXPECT_EQ(binary_entropy(1.0), 0.0);
  EXPECT_NEAR(binary_entropy(0.11), 0.4999, 1e-3);
}

// ---- Madogram --------------------------------------------------------------

TEST(Madogram, ConstantFieldIsPerfectlySmooth) {
  std::vector<std::uint16_t> data(5000, 7);
  const auto m = madogram(std::span<const std::uint16_t>(data));
  EXPECT_EQ(m.mean_roughness, 0.0);
  EXPECT_EQ(m.smoothness(), 1.0);
}

TEST(Madogram, AlternatingFieldIsMaximallyRoughAtOddDistances) {
  std::vector<std::uint16_t> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint16_t>(i & 1);
  MadogramConfig cfg;
  cfg.samples = 200000;
  const auto m = madogram(std::span<const std::uint16_t>(data), cfg);
  // Odd distances always differ; even distances never do.
  EXPECT_NEAR(m.binary_variance[0], 1.0, 1e-12);  // d=1
  EXPECT_NEAR(m.binary_variance[1], 0.0, 1e-12);  // d=2
  EXPECT_NEAR(m.mean_roughness, 0.5, 0.05);
}

TEST(Madogram, RandomWalkMadogramGrowsWithDistance) {
  // Fig 2a's structure: for a random walk, E|Z(a)-Z(a+d)| grows ~ sqrt(d),
  // so the regression slope is positive.
  std::mt19937 rng(11);
  std::normal_distribution<float> step(0.0f, 1.0f);
  std::vector<float> walk(20000);
  float acc = 0.0f;
  for (auto& x : walk) {
    acc += step(rng);
    x = acc;
  }
  MadogramConfig cfg;
  cfg.samples = 300000;
  const auto m = madogram(std::span<const float>(walk), cfg);
  EXPECT_GT(m.slope, 0.0);
  EXPECT_GT(m.abs_difference[150] + m.abs_difference[180], m.abs_difference[0]);
}

TEST(Madogram, DeterministicUnderSeed) {
  std::vector<float> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::sin(0.01f * static_cast<float>(i));
  const auto a = madogram(std::span<const float>(data));
  const auto b = madogram(std::span<const float>(data));
  EXPECT_EQ(a.mean_roughness, b.mean_roughness);
  EXPECT_EQ(a.abs_difference, b.abs_difference);
}

TEST(AdjacentRoughness, ExactCount) {
  std::vector<std::uint16_t> data{1, 1, 2, 2, 2, 3};  // 2 changes over 5 pairs
  EXPECT_DOUBLE_EQ(adjacent_roughness(data), 0.4);
  EXPECT_EQ(adjacent_roughness(std::vector<std::uint16_t>{5}), 0.0);
}

// ---- Selector ---------------------------------------------------------------

std::vector<std::uint64_t> histogram_with_p1(double p1, std::uint64_t total = 1000000) {
  // Mass p1 at the top symbol; remainder spread over 8 neighbors.
  std::vector<std::uint64_t> freq(1024, 0);
  freq[512] = static_cast<std::uint64_t>(p1 * static_cast<double>(total));
  const std::uint64_t rest = total - freq[512];
  for (int k = 1; k <= 4; ++k) {
    freq[512 + k] = rest / 8;
    freq[512 - k] = rest / 8;
  }
  return freq;
}

// Find a codec's rank (0 = best) in the decision's score table.
std::size_t rank_of(const WorkflowDecision& d, Workflow wf) {
  for (std::size_t i = 0; i < d.scores.size(); ++i) {
    if (d.scores[i].workflow == wf) return i;
  }
  ADD_FAILURE() << "workflow " << static_cast<int>(wf) << " missing from score table";
  return d.scores.size();
}

// A codec's row in the decision's score table.
const CodecScore& row_of(const WorkflowDecision& d, Workflow wf) {
  const std::size_t r = rank_of(d, wf);
  if (r == d.scores.size()) throw std::logic_error("codec missing from score table");
  return d.scores[r];
}

// The paper's projected Huffman ⟨b⟩ = max(1, H + R⁻).
double huffman_avg_bits(const WorkflowDecision& d) {
  return std::max(1.0, d.stats.avg_bits_lower());
}

TEST(Selector, VerySmoothDataBreaksTheHuffmanFloor) {
  // ⟨b⟩ ≤ 1.09 is the paper's cue that Huffman is pinned at its 1-bit
  // floor.  The cost model generalizes the rule: every sub-bit codec —
  // rANS, RLE, RLE+VLE — must outrank Huffman here, and the winner is the
  // fractional-bit rANS stage (best projected ratio at competitive modeled
  // encode time).
  const auto d = select_workflow(histogram_with_p1(0.995));
  EXPECT_EQ(d.workflow, Workflow::kRans);
  EXPECT_LE(huffman_avg_bits(d), 1.09);
  const auto huffman_rank = rank_of(d, Workflow::kHuffman);
  EXPECT_LT(rank_of(d, Workflow::kRans), huffman_rank);
  EXPECT_LT(rank_of(d, Workflow::kRleVle), huffman_rank);  // the §III rule
  EXPECT_LT(rank_of(d, Workflow::kRle), huffman_rank);
}

TEST(Selector, RoughDataSelectsHuffman) {
  const auto d = select_workflow(histogram_with_p1(0.6));
  EXPECT_EQ(d.workflow, Workflow::kHuffman);
  EXPECT_GT(huffman_avg_bits(d), 1.09);
}

TEST(Selector, ScoreTableCoversEveryWorkflowOnce) {
  const auto d = select_workflow(histogram_with_p1(0.9));
  ASSERT_EQ(d.scores.size(), 7u);
  for (const auto wf : {Workflow::kHuffman, Workflow::kRle, Workflow::kRleVle, Workflow::kRans,
                        Workflow::kLz77, Workflow::kLzh, Workflow::kLzr}) {
    rank_of(d, wf);  // ADD_FAILUREs when absent
  }
  // Ranked best-first.
  for (std::size_t i = 1; i < d.scores.size(); ++i) {
    EXPECT_GE(d.scores[i - 1].score, d.scores[i].score);
  }
}

TEST(Selector, ObjectiveWeightsAreConfigurable) {
  // A pure-throughput objective must take the cheapest modeled encoder
  // (plain RLE: one pass, no codebook); a pure-ratio objective on the same
  // histogram must take the best projected ratio regardless of speed.
  SelectorConfig fast;
  fast.ratio_weight = 0.0;
  fast.throughput_weight = 1.0;
  const auto d_fast = select_workflow(histogram_with_p1(0.995), 4, fast);
  EXPECT_EQ(d_fast.workflow, Workflow::kRle);

  SelectorConfig dense;
  dense.ratio_weight = 1.0;
  dense.throughput_weight = 0.0;
  const auto d_dense = select_workflow(histogram_with_p1(0.995), 4, dense);
  double best_ratio = 0.0;
  for (const auto& s : d_dense.scores) best_ratio = std::max(best_ratio, s.est_ratio);
  EXPECT_EQ(d_dense.scores.front().est_ratio, best_ratio);
}

TEST(Selector, EstimatedVleCrRespectsTheFloatCeiling) {
  // ⟨b⟩ >= 1 bit means VLE alone cannot beat 32x for float data — the
  // ceiling the paper's Workflow-RLE is designed to break.
  const auto d = select_workflow(histogram_with_p1(0.9999));
  EXPECT_LE(row_of(d, Workflow::kHuffman).est_ratio, 32.0 + 1e-9);
}

TEST(Selector, RleBitsEstimateTracksP1) {
  const auto smooth = select_workflow(histogram_with_p1(0.99));
  const auto rough = select_workflow(histogram_with_p1(0.7));
  EXPECT_LT(row_of(smooth, Workflow::kRle).est_bits_per_symbol,
            row_of(rough, Workflow::kRle).est_bits_per_symbol);
}

}  // namespace
