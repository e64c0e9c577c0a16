// rANS entropy coder and LZ77+rANS (Zstd stand-in) tests.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "core/error.hh"
#include "core/rans.hh"
#include "core/serialize.hh"
#include "lossless/lzr.hh"

namespace {

using namespace szp;
using namespace szp::lossless;

std::vector<std::uint16_t> skewed_symbols(std::size_t n, double p_top, std::size_t alphabet,
                                          std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, alphabet - 1);
  std::vector<std::uint16_t> v(n);
  for (auto& s : v) {
    s = u(rng) < p_top ? static_cast<std::uint16_t>(0) : static_cast<std::uint16_t>(pick(rng));
  }
  return v;
}

std::vector<std::uint64_t> counts_of(std::span<const std::uint16_t> syms, std::size_t alphabet) {
  std::vector<std::uint64_t> c(alphabet, 0);
  for (const auto s : syms) ++c[s];
  return c;
}

// ---- Model ------------------------------------------------------------------

TEST(RansModel, FrequenciesSumToScaleAndKeepEverySymbol) {
  for (const double p : {0.01, 0.5, 0.99, 0.9999}) {
    const auto syms = skewed_symbols(100000, p, 300, 1);
    const auto model = RansModel::build(counts_of(syms, 300));
    std::uint32_t total = 0;
    std::size_t live = 0;
    for (std::size_t s = 0; s < 300; ++s) {
      total += model.freq(s);
      live += model.freq(s) > 0 ? 1u : 0u;
    }
    EXPECT_EQ(total, RansModel::kProbScale) << p;
    // Every occurring symbol keeps a nonzero slot (encodability).
    const auto counts = counts_of(syms, 300);
    for (std::size_t s = 0; s < 300; ++s) {
      if (counts[s] > 0) EXPECT_GT(model.freq(s), 0u) << "p=" << p << " s=" << s;
    }
  }
}

TEST(RansModel, SlotTableIsConsistent) {
  const auto syms = skewed_symbols(20000, 0.7, 50, 2);
  const auto model = RansModel::build(counts_of(syms, 50));
  for (std::uint32_t slot = 0; slot < RansModel::kProbScale; ++slot) {
    const auto& e = model.slot(slot);
    const auto s = e.symbol;
    EXPECT_GE(slot, model.cum(s));
    EXPECT_LT(slot, model.cum(s) + model.freq(s));
    EXPECT_EQ(e.freq, model.freq(s));
    EXPECT_EQ(e.offset, slot - model.cum(s));
  }
}

TEST(RansModel, SerializationRoundTrip) {
  const auto syms = skewed_symbols(50000, 0.9, 1024, 3);
  const auto model = RansModel::build(counts_of(syms, 1024));
  ByteWriter w;
  model.serialize(w);
  const auto bytes = w.take();
  ByteReader r(bytes);
  const auto restored = RansModel::deserialize(r);
  ASSERT_EQ(restored.alphabet_size(), model.alphabet_size());
  for (std::size_t s = 0; s < 1024; ++s) {
    EXPECT_EQ(restored.freq(s), model.freq(s));
  }
}

TEST(RansModel, RejectsDegenerateInput) {
  std::vector<std::uint64_t> zeros(16, 0);
  EXPECT_THROW((void)RansModel::build(zeros), std::invalid_argument);
  EXPECT_THROW((void)RansModel::build({}), std::invalid_argument);
}

// ---- Coder -------------------------------------------------------------------

/// The one-lane coder by plain division, the way rans_encode computed it
/// before reciprocals: the byte-exact reference for lanes = 1.
std::vector<std::uint8_t> dividing_encode(std::span<const std::uint16_t> syms,
                                          const RansModel& model) {
  constexpr std::uint32_t kLow = 1u << 23;
  std::vector<std::uint8_t> reversed;
  std::uint32_t x = kLow;
  for (std::size_t i = syms.size(); i-- > 0;) {
    const std::uint32_t f = model.freq(syms[i]);
    const std::uint32_t x_max = ((kLow >> RansModel::kProbBits) << 8) * f;
    while (x >= x_max) {
      reversed.push_back(static_cast<std::uint8_t>(x & 0xff));
      x >>= 8;
    }
    x = ((x / f) << RansModel::kProbBits) + (x % f) + model.cum(syms[i]);
  }
  for (int k = 0; k < 4; ++k) {
    reversed.push_back(static_cast<std::uint8_t>(x & 0xff));
    x >>= 8;
  }
  return {reversed.rbegin(), reversed.rend()};
}

/// Runs `decode` and returns its DecodeError verdict as "kind in segment",
/// or "accepted".
template <typename F>
std::string verdict(F&& decode) {
  try {
    decode();
  } catch (const DecodeError& e) {
    return std::string(decode_error_kind_name(e.kind())) + " in " + e.segment();
  }
  return "accepted";
}

// Every case runs both lane counts; sizes around the 8-symbol group (0, 7,
// 8, 9 and 65541 = 8 * 8192 + 5) run the grouped path and the checked tail.
class RansRoundTrip : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(RansRoundTrip, EncodeDecodeIdentity) {
  const auto [n, p_top] = GetParam();
  const auto syms = skewed_symbols(n, p_top, 512, static_cast<std::uint32_t>(n));
  auto counts = counts_of(syms, 512);
  if (syms.empty()) counts[0] = 1;  // an empty stream still needs a model
  const auto model = RansModel::build(counts);
  for (const unsigned lanes : {1u, kRansLanes}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    const auto bytes = rans_encode(syms, model, lanes);
    EXPECT_GE(bytes.size(), 4u * lanes);
    EXPECT_EQ(rans_decode(bytes, syms.size(), model, lanes), syms);
  }
}

INSTANTIATE_TEST_SUITE_P(SizesSkews, RansRoundTrip,
                         ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1},
                                                              std::size_t{7}, std::size_t{8},
                                                              std::size_t{9}, std::size_t{100},
                                                              std::size_t{65536},
                                                              std::size_t{65541}),
                                            ::testing::Values(0.1, 0.9, 0.999)));

TEST(Rans, OneLaneStreamMatchesTheDividingReferenceAtEveryFrequency) {
  // Two symbols with frequencies f and M - f, for every f from 1 to M: the
  // reciprocal encoder must write the dividing encoder's bytes.
  std::mt19937 rng(12);
  for (std::uint32_t f = 1; f <= RansModel::kProbScale; ++f) {
    const std::vector<std::uint64_t> counts{f, RansModel::kProbScale - f};
    const auto model = RansModel::build(counts);
    ASSERT_EQ(model.freq(0), f);
    std::vector<std::uint16_t> syms(48);
    for (auto& s : syms) s = f == RansModel::kProbScale ? 0 : static_cast<std::uint16_t>(rng() & 1);
    const auto bytes = rans_encode(syms, model);
    ASSERT_EQ(bytes, dividing_encode(syms, model)) << "f = " << f;
    ASSERT_EQ(rans_decode(bytes, syms.size(), model), syms) << "f = " << f;
  }
}

TEST(Rans, LaneCountIsOneOrEight) {
  const std::vector<std::uint16_t> syms{0, 1, 0};
  const auto model = RansModel::build(std::vector<std::uint64_t>{2, 1});
  EXPECT_THROW((void)rans_encode(syms, model, 4), std::invalid_argument);
  const auto bytes = rans_encode(syms, model, kRansLanes);
  EXPECT_THROW((void)rans_decode(bytes, syms.size(), model, 2), std::invalid_argument);
}

TEST(Rans, SymbolOutsideTheModelIsRefused) {
  const auto model = RansModel::build(std::vector<std::uint64_t>{5, 0, 3});
  for (const unsigned lanes : {1u, kRansLanes}) {
    EXPECT_THROW((void)rans_encode(std::vector<std::uint16_t>{0, 1, 2}, model, lanes),
                 std::invalid_argument);
    EXPECT_THROW((void)rans_encode(std::vector<std::uint16_t>{0, 3}, model, lanes),
                 std::invalid_argument);
  }
}

TEST(Rans, EveryPrefixOfAnEightLaneStreamIsTruncated) {
  const auto syms = skewed_symbols(300, 0.6, 40, 13);
  const auto model = RansModel::build(counts_of(syms, 40));
  const auto bytes = rans_encode(syms, model, kRansLanes);
  ASSERT_GT(bytes.size(), 4u * kRansLanes + 16);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_EQ(verdict([&] { (void)rans_decode(prefix, syms.size(), model, kRansLanes); }),
              "truncated in rans stream")
        << "prefix of " << cut << " bytes";
  }
}

TEST(Rans, FlippingAnyLanesFlushedStateIsCorrupt) {
  // One symbol with the whole scale: each decode step is the identity and
  // reads no byte, so a flipped state reaches the end as it is and only the
  // final check of its own lane can catch it.
  const std::vector<std::uint16_t> flat(21, 0);
  const auto single = RansModel::build(std::vector<std::uint64_t>{21});
  const auto flat_bytes = rans_encode(flat, single, kRansLanes);
  ASSERT_EQ(flat_bytes.size(), 4u * kRansLanes);
  for (unsigned lane = 0; lane < kRansLanes; ++lane) {
    auto bad = flat_bytes;
    bad[4 * lane + 3] ^= 1;  // low bit of the lane's big-endian state
    try {
      (void)rans_decode(bad, flat.size(), single, kRansLanes);
      ADD_FAILURE() << "lane " << lane << ": flipped state accepted";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.kind(), DecodeErrorKind::kCorruptStream) << "lane " << lane;
      EXPECT_EQ(e.segment(), "rans stream");
      EXPECT_NE(std::string(e.what()).find("lane " + std::to_string(lane)), std::string::npos)
          << e.what();
    }
  }

  // On a skewed stream a flipped state also moves the renormalization
  // reads, so the stream may run out first; it is never accepted.
  const auto syms = skewed_symbols(300, 0.6, 40, 14);
  const auto model = RansModel::build(counts_of(syms, 40));
  const auto bytes = rans_encode(syms, model, kRansLanes);
  for (unsigned lane = 0; lane < kRansLanes; ++lane) {
    auto bad = bytes;
    bad[4 * lane + 3] ^= 1;
    const auto v = verdict([&] { (void)rans_decode(bad, syms.size(), model, kRansLanes); });
    EXPECT_TRUE(v == "corrupt-stream in rans stream" || v == "truncated in rans stream")
        << "lane " << lane << ": " << v;
  }
}

TEST(Rans, BeatsHuffmanFloorOnVerySkewedData) {
  // p1 = 0.999: entropy ~ 0.014 bits/symbol.  Huffman is stuck at >= 1 bit;
  // rANS's fractional bits get close to the entropy.
  const auto syms = skewed_symbols(200000, 0.999, 64, 7);
  const auto model = RansModel::build(counts_of(syms, 64));
  const auto bytes = rans_encode(syms, model);
  const double bits_per_symbol =
      static_cast<double>(bytes.size()) * 8.0 / static_cast<double>(syms.size());
  EXPECT_LT(bits_per_symbol, 0.1);
}

TEST(Rans, ApproachesEntropyOnUniformData) {
  std::mt19937 rng(8);
  std::vector<std::uint16_t> syms(100000);
  for (auto& s : syms) s = static_cast<std::uint16_t>(rng() % 256);
  const auto model = RansModel::build(counts_of(syms, 256));
  const auto bytes = rans_encode(syms, model);
  const double bits = static_cast<double>(bytes.size()) * 8.0 / static_cast<double>(syms.size());
  EXPECT_NEAR(bits, 8.0, 0.1);
}

TEST(Rans, SingleSymbolStreamCostsAlmostNothing) {
  std::vector<std::uint16_t> syms(100000, 5);
  std::vector<std::uint64_t> counts(16, 0);
  counts[5] = syms.size();
  const auto model = RansModel::build(counts);
  const auto bytes = rans_encode(syms, model);
  EXPECT_LE(bytes.size(), 8u);  // just the state flush
  EXPECT_EQ(rans_decode(bytes, syms.size(), model), syms);
}

TEST(Rans, CorruptStreamIsDetected) {
  const auto syms = skewed_symbols(5000, 0.6, 64, 9);
  const auto model = RansModel::build(counts_of(syms, 64));
  auto bytes = rans_encode(syms, model);
  bytes.resize(bytes.size() / 2);  // truncate
  bool failed = false;
  try {
    const auto decoded = rans_decode(bytes, syms.size(), model);
    failed = decoded != syms;
  } catch (const std::runtime_error&) {
    failed = true;
  }
  EXPECT_TRUE(failed);
}

// ---- LZR (Zstd stand-in) -----------------------------------------------------

std::vector<std::uint8_t> bytes_of(const std::string& s) { return {s.begin(), s.end()}; }

TEST(Lzr, RoundTripAssorted) {
  for (const auto& s : {std::string{""}, std::string{"x"}, std::string{"aaa"},
                        std::string{"the quick brown fox the quick brown fox"}}) {
    const auto input = bytes_of(s);
    EXPECT_EQ(lzr_decompress(lzr_compress(input)), input) << "'" << s << "'";
  }
}

TEST(Lzr, RoundTripRandomAndRepetitive) {
  std::mt19937 rng(10);
  std::vector<std::uint8_t> random(80000);
  for (auto& b : random) b = static_cast<std::uint8_t>(rng());
  EXPECT_EQ(lzr_decompress(lzr_compress(random)), random);

  std::vector<std::uint8_t> rep;
  for (int i = 0; i < 60000; ++i) rep.push_back(static_cast<std::uint8_t>("abcabd"[i % 6]));
  const auto c = lzr_compress(rep);
  EXPECT_LT(c.size(), rep.size() / 20);
  EXPECT_EQ(lzr_decompress(c), rep);
}

TEST(Lzr, OverlappingMatches) {
  std::vector<std::uint8_t> input(50000, 'z');
  EXPECT_EQ(lzr_decompress(lzr_compress(input)), input);
}

TEST(Lzr, CorruptInputThrows) {
  const auto c = lzr_compress(bytes_of("hello hello hello"));
  auto bad = c;
  bad[0] ^= 0xff;
  EXPECT_THROW((void)lzr_decompress(bad), std::runtime_error);
  std::vector<std::uint8_t> truncated(c.begin(), c.begin() + 10);
  EXPECT_THROW((void)lzr_decompress(truncated), std::runtime_error);
}

TEST(Lzr, SkewedDataBeatsLzhEntropyStage) {
  // A byte stream dominated by one value with sparse structure: rANS's
  // fractional bits should out-compress Huffman's integer code lengths.
  std::mt19937 rng(11);
  std::vector<std::uint8_t> input(120000, 0);
  for (auto& b : input) {
    if (rng() % 64 == 0) b = static_cast<std::uint8_t>(rng() % 256);
  }
  const double rans_ratio = lzr_ratio(input);
  EXPECT_GT(rans_ratio, 5.0);
}

}  // namespace
