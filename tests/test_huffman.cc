// Canonical Huffman codebook and chunked codec tests: optimality and
// prefix-freedom invariants, round trips, serialization, corruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/analysis/entropy.hh"
#include "core/huffman/bitio.hh"
#include "core/huffman/codebook.hh"
#include "core/compressor.hh"
#include "core/huffman/codec.hh"
#include "scoped_threads.hh"

namespace {

using namespace szp;

std::vector<std::uint64_t> histogram_of(std::span<const quant_t> syms, std::size_t cap) {
  std::vector<std::uint64_t> h(cap, 0);
  for (const auto s : syms) ++h[s];
  return h;
}

std::vector<quant_t> skewed_symbols(std::size_t n, double p_top, std::size_t cap,
                                    std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, cap - 1);
  std::vector<quant_t> v(n);
  for (auto& s : v) {
    s = u(rng) < p_top ? static_cast<quant_t>(cap / 2) : static_cast<quant_t>(pick(rng));
  }
  return v;
}

/// Run `fn` and return the (kind, segment, message) of the DecodeError it
/// throws; fails the test if it throws nothing.
template <typename Fn>
std::tuple<DecodeErrorKind, std::string, std::string> full_verdict_of(Fn&& fn) {
  try {
    fn();
  } catch (const DecodeError& e) {
    return {e.kind(), e.segment(), e.what()};
  }
  ADD_FAILURE() << "no DecodeError thrown";
  return {DecodeErrorKind::kBadMagic, "none", ""};
}

/// The (kind, segment) of full_verdict_of(fn).
template <typename Fn>
std::pair<DecodeErrorKind, std::string> verdict_of(Fn&& fn) {
  auto [kind, segment, message] = full_verdict_of(fn);
  return {kind, std::move(segment)};
}

// ---- BitWriter / BitReader -----------------------------------------------

TEST(BitIo, RoundTripAssortedWidths) {
  std::vector<std::uint8_t> bytes(8);  // 60 bits
  BitWriter w(bytes);
  w.put(0b101, 3);
  w.put(0xff, 8);
  w.put(0, 1);
  w.put(0x123456789abcull, 48);
  EXPECT_EQ(w.bit_count(), 60u);
  w.flush();
  EXPECT_EQ(w.byte_count(), bytes.size());

  BitReader r(bytes);
  auto read = [&r](unsigned len) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < len; ++i) v = (v << 1) | r.get_bit();
    return v;
  };
  EXPECT_EQ(read(3), 0b101u);
  EXPECT_EQ(read(8), 0xffu);
  EXPECT_EQ(read(1), 0u);
  EXPECT_EQ(read(48), 0x123456789abcull);
}

TEST(BitIo, ReadPastEndThrows) {
  std::vector<std::uint8_t> bytes(1);
  BitWriter w(bytes);
  w.put(1, 1);
  w.flush();
  BitReader r(bytes);
  for (int i = 0; i < 8; ++i) (void)r.get_bit();  // the padded byte
  EXPECT_THROW((void)r.get_bit(), std::runtime_error);
}

TEST(BitIo, WordReadsMatchBitReads) {
  std::mt19937 rng(11);
  std::vector<std::uint8_t> bytes(64);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  BitReader bits(bytes);
  BitReader words(bytes);
  std::uniform_int_distribution<unsigned> width(0, 57);
  while (words.remaining() > 0) {
    const auto n = static_cast<unsigned>(
        std::min<std::uint64_t>(width(rng), words.remaining()));
    std::uint64_t expect = 0;
    for (unsigned i = 0; i < n; ++i) expect = (expect << 1) | bits.get_bit();
    if (n > 0) EXPECT_EQ(words.peek(n), expect);
    EXPECT_EQ(words.get(n), expect);
    EXPECT_EQ(words.bit_position(), bits.bit_position());
  }
  // get(0) reads nothing, even at the end; get(n) past the end throws the
  // get_bit() verdict and does not move.
  EXPECT_EQ(words.get(0), 0u);
  BitReader tail(bytes, bytes.size() * 8 - 5);
  const auto v = verdict_of([&] { (void)tail.get(6); });
  EXPECT_EQ(v.first, DecodeErrorKind::kTruncated);
  EXPECT_EQ(v.second, "bitstream");
  EXPECT_EQ(tail.bit_position(), bytes.size() * 8 - 5);
  EXPECT_EQ(tail.get(5), bytes.back() & 0x1fu);
}

TEST(BitIo, PeekNeverReadsPastTheSpan) {
  // The stream's span is followed by 0xFF bytes it does not own: a peek
  // near the end must return the span's remaining bits, then zeros.
  std::mt19937 rng(12);
  std::vector<std::uint8_t> buffer(24 + 16, 0xff);
  for (std::size_t i = 0; i < 24; ++i) buffer[i] = static_cast<std::uint8_t>(rng());
  const std::span<const std::uint8_t> span(buffer.data(), 24);
  for (std::uint64_t pos = (24 - 8) * 8; pos <= 24 * 8; ++pos) {
    std::uint64_t expect = 0;
    for (std::uint64_t i = pos; i < pos + 57; ++i) {
      const unsigned bit = i < 24 * 8 ? (span[i >> 3] >> (7 - (i & 7))) & 1u : 0u;
      expect = (expect << 1) | bit;
    }
    EXPECT_EQ(BitReader(span, pos).peek(57), expect) << "bit " << pos;
    EXPECT_EQ(BitReader(span, pos).remaining(), 24 * 8 - pos);
  }
}

// ---- Table-driven decode against the canonical walk ----------------------

/// Every chunk (and gap-array sub-block) of `payload` in unit order, each
/// symbol from `decode_one(BitReader&)`: the first unit to fault throws.
template <typename DecodeOne>
std::vector<quant_t> decode_units(const HuffmanEncoded& enc, std::span<const std::uint8_t> payload,
                                  const DecodeOne& decode_one) {
  std::vector<quant_t> out;
  const std::size_t n = enc.num_symbols;
  const std::size_t stride = enc.gap_stride > 0 ? enc.gap_stride : enc.chunk_size;
  const std::size_t per_chunk = enc.chunk_size / stride;
  for (std::size_t c = 0; c + 1 < enc.chunk_offsets.size(); ++c) {
    const auto chunk = payload.subspan(enc.chunk_offsets[c],
                                       enc.chunk_offsets[c + 1] - enc.chunk_offsets[c]);
    for (std::size_t sub = 0; sub < per_chunk; ++sub) {
      const std::size_t lo = c * enc.chunk_size + sub * stride;
      const std::size_t hi = std::min(lo + stride, n);
      BitReader r(chunk, enc.gap_stride > 0 ? enc.gaps[c * per_chunk + sub] : 0);
      for (std::size_t i = lo; i < hi; ++i) out.push_back(static_cast<quant_t>(decode_one(r)));
    }
  }
  return out;
}

/// A canonical decoder built only from the book's public code()/length():
/// read one bit at a time until the bits read are some symbol's code.  The
/// table decode must give the same symbols and the same verdicts.
class ReferenceWalk {
 public:
  explicit ReferenceWalk(const HuffmanCodebook& book) : max_len_(book.max_length()) {
    for (std::size_t s = 0; s < book.alphabet_size(); ++s) {
      if (book.length(s) > 0) codes_[{book.length(s), book.code(s)}] = static_cast<std::uint32_t>(s);
    }
  }

  [[nodiscard]] std::uint32_t decode_one(BitReader& r) const {
    std::uint64_t code = 0;
    for (unsigned len = 1; len <= max_len_; ++len) {
      code = (code << 1) | r.get_bit();
      const auto it = codes_.find({len, code});
      if (it != codes_.end()) return it->second;
    }
    throw DecodeError(DecodeErrorKind::kCorruptStream, "bitstream", "no code matches");
  }

  /// Every chunk (and gap-array sub-block) of `payload`, in order.
  [[nodiscard]] std::vector<quant_t> decode(const HuffmanEncoded& enc,
                                            std::span<const std::uint8_t> payload) const {
    return decode_units(enc, payload, [this](BitReader& r) { return decode_one(r); });
  }

 private:
  unsigned max_len_;
  std::map<std::pair<unsigned, std::uint64_t>, std::uint32_t> codes_;
};

/// Frequencies F(1), F(2), ... over the first `live` symbols: the Huffman
/// tree degenerates to a chain, so the longest code is live - 1 bits.
std::vector<std::uint64_t> fibonacci_freq(std::size_t live, std::size_t alphabet) {
  std::vector<std::uint64_t> freq(alphabet, 0);
  std::uint64_t a = 1, b = 1;
  for (std::size_t s = 0; s < live; ++s) {
    freq[s] = a;
    a = std::exchange(b, a + b);
  }
  return freq;
}

/// `n` symbols drawn uniformly from the book's live symbols, so the
/// longest (rarest-by-design) codes appear as often as the shortest.
std::vector<quant_t> uniform_live_symbols(std::span<const std::uint64_t> freq, std::size_t n,
                                          std::uint32_t seed) {
  std::vector<quant_t> live;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] > 0) live.push_back(static_cast<quant_t>(s));
  }
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, live.empty() ? 0 : live.size() - 1);
  std::vector<quant_t> v(live.empty() ? 0 : n);
  for (auto& s : v) s = live[pick(rng)];
  return v;
}

/// Decode through the in-place entry point from a separate copy of the
/// payload, as the codecs decode an archive's bytes.
std::vector<quant_t> decode_in_place(const HuffmanEncoded& meta,
                                     std::span<const std::uint8_t> payload,
                                     const HuffmanCodebook& book) {
  sim::device_vector<quant_t> out;
  (void)huffman_decode_into(meta, payload, book, meta.num_symbols, out);
  return {out.begin(), out.end()};
}

TEST(HuffmanTableDecode, MatchesReferenceWalkOnEveryBookShape) {
  struct Case {
    const char* name;
    std::vector<std::uint64_t> freq;
    unsigned min_len, max_len;  // bounds on the book's longest code
  };
  std::vector<std::uint64_t> wide(65536, 0);
  for (std::size_t i = 0; i < 3000; ++i) wide[(i * 7919) % 65536] = 1 + (3000 - i) * (3000 - i);
  std::vector<std::uint64_t> one(16, 0);
  one[5] = 1000;
  std::vector<Case> cases{
      {"short", histogram_of(skewed_symbols(20000, 0.3, 64, 21), 64), 1, 11},
      {"exactly-12", fibonacci_freq(13, 1024), 12, 12},
      {"13", fibonacci_freq(14, 1024), 13, 13},
      {"beyond-32", fibonacci_freq(40, 1024), 33, 63},
      // The longest code one 64-bit window resolves, and one past it.
      {"57", fibonacci_freq(58, 1024), 57, 57},
      {"59", fibonacci_freq(60, 1024), 59, 59},
      {"one-symbol", one, 1, 1},
      {"no-symbol", std::vector<std::uint64_t>(16, 0), 0, 0},
      {"65536-alphabet", wide, 13, 63},
  };
  // Symbol counts that give inflate blocks groups of one to three chunks,
  // exact full groups, and a short last chunk.
  const std::size_t counts[] = {4096,         3 * 4096 + 17, 4 * 4096,
                                4 * 4096 + 1, 8 * 4096 - 1,  9 * 4096 + 5};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto book = HuffmanCodebook::build(c.freq);
    EXPECT_GE(book.max_length(), c.min_len);
    EXPECT_LE(book.max_length(), c.max_len);
    const ReferenceWalk walk(book);
    for (const std::size_t n : counts) {
      SCOPED_TRACE(n);
      const auto syms = uniform_live_symbols(c.freq, n, static_cast<std::uint32_t>(n));
      for (const std::uint32_t gap : {0u, 128u, 256u, 4096u}) {
        SCOPED_TRACE(gap);
        const auto enc = huffman_encode(syms, book, 4096, HuffmanEncVariant::kOptimized, gap);
        EXPECT_EQ(huffman_decode(enc, book).symbols, syms);
        if (gap == 0 || gap == 256) EXPECT_EQ(walk.decode(enc, enc.payload), syms);
        // The in-place entry point reads the same bits from a separate
        // span, at one thread and at four.
        HuffmanEncoded meta = enc;
        const std::vector<std::uint8_t> payload = std::move(meta.payload);
        meta.payload.clear();
        for (const int threads : {1, 4}) {
          const test::ScopedThreads scoped(threads);
          EXPECT_EQ(decode_in_place(meta, payload, book), syms) << threads << " threads";
        }
      }
    }
  }
}

TEST(HuffmanTableDecode, TruncationVerdictsMatchReferenceWalk) {
  const auto syms = skewed_symbols(20000, 0.5, 1024, 23);
  const auto book = HuffmanCodebook::build(histogram_of(syms, 1024));
  const ReferenceWalk walk(book);
  for (const std::uint32_t gap : {0u, 256u}) {
    SCOPED_TRACE(gap);
    const auto enc = huffman_encode(syms, book, 4096, HuffmanEncVariant::kOptimized, gap);
    ASSERT_GT(enc.chunk_offsets.size(), 3u);
    ASSERT_GT(enc.chunk_offsets.back() - enc.chunk_offsets[enc.chunk_offsets.size() - 2], 16u);
    for (std::size_t cut = 1; cut <= 16; ++cut) {
      SCOPED_TRACE(cut);
      const auto payload =
          std::span<const std::uint8_t>(enc.payload).first(enc.payload.size() - cut);
      HuffmanEncoded meta = enc;
      meta.payload.clear();
      meta.chunk_offsets.back() = payload.size();
      sim::device_vector<quant_t> out;
      const auto table =
          verdict_of([&] { (void)huffman_decode_into(meta, payload, book, syms.size(), out); });
      const auto reference = verdict_of([&] { (void)walk.decode(meta, payload); });
      EXPECT_EQ(table, reference);
      EXPECT_EQ(table.first, DecodeErrorKind::kTruncated);
      EXPECT_EQ(table.second, "bitstream");
    }
  }
}

/// A deserialized book whose lengths under-fill the Kraft sum: codes 00,
/// 01 (symbols 3 and 7) and the 14-bit 10000000000000 (symbol 9) leave
/// every prefix 11 unused.
HuffmanCodebook underfull_book() {
  ByteWriter w;
  w.put<std::uint32_t>(64);
  w.put<std::uint32_t>(3);
  for (const auto& [sym, len] : {std::pair<std::uint32_t, std::uint8_t>{3, 2}, {7, 2}, {9, 14}}) {
    w.put<std::uint32_t>(sym);
    w.put<std::uint8_t>(len);
  }
  const auto bytes = w.take();
  ByteReader r(bytes);
  return HuffmanCodebook::deserialize(r);
}

TEST(HuffmanTableDecode, UnusedPrefixIsCorruptInBothDecoders) {
  const auto expect_corrupt = [](const HuffmanCodebook& book,
                                 std::span<const std::uint8_t> bytes) {
    const ReferenceWalk walk(book);
    BitReader a(bytes), b(bytes);
    const auto table = verdict_of([&] { (void)book.decode_one(a); });
    const auto reference = verdict_of([&] { (void)walk.decode_one(b); });
    EXPECT_EQ(table, reference);
    EXPECT_EQ(table.first, DecodeErrorKind::kCorruptStream);
    EXPECT_EQ(table.second, "bitstream");
  };
  const std::vector<std::uint8_t> ones{0xff, 0xff, 0xff};

  // One live symbol owns the 1-bit code 0; the prefix 1 is unused.
  std::vector<std::uint64_t> one(16, 0);
  one[5] = 1000;
  expect_corrupt(HuffmanCodebook::build(one), ones);

  // An under-full deserialized book leaves every prefix 11 unused.
  const auto sparse = underfull_book();
  ASSERT_EQ(sparse.length(9), 14u);
  expect_corrupt(sparse, ones);
  // 14-bit codes bypass the table; one bit off is a prefix nobody owns.
  const std::vector<std::uint8_t> long_code{0x80, 0x00};
  const std::vector<std::uint8_t> long_miss{0x80, 0x04};
  BitReader a(long_code), b(long_code);
  EXPECT_EQ(sparse.decode_one(a), 9u);
  EXPECT_EQ(ReferenceWalk(sparse).decode_one(b), 9u);
  EXPECT_EQ(a.bit_position(), 14u);
  expect_corrupt(sparse, long_miss);
  // The empty book owns no prefix at all.
  expect_corrupt(HuffmanCodebook::build(std::vector<std::uint64_t>(16, 0)), ones);
}

// ---- Verdicts of grouped decode units -------------------------------------
//
// One inflate launch block owns several consecutive decode units (chunks,
// or gap-array sub-blocks).  When two units of one group are damaged in
// different ways, the verdict is the lower unit's.

TEST(HuffmanGroupDecode, LowestFaultingUnitGivesTheVerdict) {
  // 5 * 4096 symbols over the under-full book's three codes: one full group
  // of four chunks, then a group of one.
  const auto book = underfull_book();
  std::vector<quant_t> syms(5 * 4096);
  std::mt19937 rng(31);
  for (auto& s : syms) s = std::array<quant_t, 3>{3, 7, 9}[rng() % 3];
  const ReferenceWalk walk(book);

  // Damage, applied to a fresh encoding's metadata and payload: a unit that
  // runs past its slice is truncated, and an 0xff byte a few bytes into a
  // unit's bits is a prefix 11 no code owns.
  struct Edit {
    HuffmanEncoded& meta;
    std::vector<std::uint8_t>& payload;
    /// Chunk c loses its last 3 bytes; chunk c + 1 starts 3 bytes early.
    void cut(std::size_t c) const { meta.chunk_offsets[c + 1] -= 3; }
    /// Byte 3 of the bits of unit `sub` of chunk c becomes 0xff.
    void unowned(std::size_t c, std::size_t sub = 0) const {
      const std::size_t per_chunk = meta.gap_stride > 0 ? meta.chunk_size / meta.gap_stride : 1;
      const std::size_t bit = meta.gap_stride > 0 ? meta.gaps[c * per_chunk + sub] : 0;
      payload[meta.chunk_offsets[c] + bit / 8 + 3] = 0xff;
    }
    /// Sub-block `sub` of chunk 0 starts where its last sub-block does, so
    /// with cut(0) it too runs past the end of the slice.
    void reenter_last(std::size_t sub) const {
      meta.gaps[sub] = meta.gaps[meta.chunk_size / meta.gap_stride - 1];
    }
  };
  struct Case {
    const char* name;
    std::uint32_t gap;
    void (*damage)(const Edit&);
    DecodeErrorKind want;
  };
  const Case cases[] = {
      // The lower unit is truncated near its end; the higher one meets an
      // unowned prefix within a few symbols, long before.
      {"truncated 0, unowned 2", 0,
       [](const Edit& e) {
         e.cut(0);
         e.unowned(2);
       },
       DecodeErrorKind::kTruncated},
      {"unowned 0, truncated 2", 0,
       [](const Edit& e) {
         e.unowned(0);
         e.cut(2);
       },
       DecodeErrorKind::kCorruptStream},
      // The same pairs inside the gap-array sub-blocks of chunk 0.
      {"gap: truncated 1, unowned 2", 256,
       [](const Edit& e) {
         e.unowned(0, 2);
         e.cut(0);
         e.reenter_last(1);
       },
       DecodeErrorKind::kTruncated},
      {"gap: unowned 1, truncated 2", 256,
       [](const Edit& e) {
         e.unowned(0, 1);
         e.cut(0);
         e.reenter_last(2);
       },
       DecodeErrorKind::kCorruptStream},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    HuffmanEncoded meta = huffman_encode(syms, book, 4096, HuffmanEncVariant::kOptimized, c.gap);
    std::vector<std::uint8_t> payload = std::move(meta.payload);
    meta.payload.clear();
    ASSERT_EQ(meta.chunk_offsets.size(), 6u);
    c.damage(Edit{meta, payload});
    // Unit by unit with decode_one: what a grid of one unit per block
    // reports, since a launch ranks faults by block.
    const auto serial = full_verdict_of([&] {
      (void)decode_units(meta, payload, [&](BitReader& r) { return book.decode_one(r); });
    });
    EXPECT_EQ(std::get<0>(serial), c.want);
    EXPECT_EQ(std::get<1>(serial), "bitstream");
    const auto reference = verdict_of([&] { (void)walk.decode(meta, payload); });
    EXPECT_EQ(reference, std::make_pair(std::get<0>(serial), std::get<1>(serial)));
    for (const int threads : {1, 4}) {
      const test::ScopedThreads scoped(threads);
      EXPECT_EQ(full_verdict_of([&] { (void)decode_in_place(meta, payload, book); }), serial)
          << threads << " threads";
    }
  }
}

// ---- Codebook invariants ---------------------------------------------------

TEST(HuffmanCodebook, KraftEqualityHolds) {
  // A full (optimal) binary code satisfies sum 2^-len == 1.
  const auto syms = skewed_symbols(20000, 0.6, 1024, 1);
  const auto freq = histogram_of(syms, 1024);
  const auto book = HuffmanCodebook::build(freq);
  long double kraft = 0.0L;
  for (std::size_t s = 0; s < 1024; ++s) {
    if (book.length(s) > 0) kraft += std::pow(2.0L, -static_cast<int>(book.length(s)));
  }
  EXPECT_NEAR(static_cast<double>(kraft), 1.0, 1e-12);
}

TEST(HuffmanCodebook, PrefixFree) {
  const auto syms = skewed_symbols(5000, 0.3, 256, 2);
  const auto freq = histogram_of(syms, 256);
  const auto book = HuffmanCodebook::build(freq);
  // Compare every live pair: no code may prefix another.
  std::vector<std::size_t> live;
  for (std::size_t s = 0; s < 256; ++s) {
    if (book.length(s) > 0) live.push_back(s);
  }
  for (const auto a : live) {
    for (const auto b : live) {
      if (a == b) continue;
      const unsigned la = book.length(a), lb = book.length(b);
      if (la > lb) continue;
      EXPECT_NE(book.code(b) >> (lb - la), book.code(a))
          << "code " << a << " prefixes " << b;
    }
  }
}

TEST(HuffmanCodebook, AverageBitsWithinEntropyPlusOne) {
  for (const double p_top : {0.1, 0.5, 0.9, 0.99}) {
    const auto syms = skewed_symbols(50000, p_top, 1024, 3);
    const auto freq = histogram_of(syms, 1024);
    const auto book = HuffmanCodebook::build(freq);
    const auto stats = entropy_stats(freq);
    const double avg = book.average_bits(freq);
    EXPECT_GE(avg + 1e-9, std::max(1.0, stats.entropy_bits)) << "p_top=" << p_top;
    EXPECT_LE(avg, stats.entropy_bits + 1.0) << "p_top=" << p_top;
    // Gallager/Johnsen bounds bracket the true average.
    EXPECT_LE(avg, std::max(1.0, stats.avg_bits_upper()) + 1e-9);
    EXPECT_GE(avg + 1e-9, std::max(1.0, stats.avg_bits_lower()));
  }
}

TEST(HuffmanCodebook, CanonicalCodesAreSortedByLengthThenSymbol) {
  const auto syms = skewed_symbols(10000, 0.4, 64, 4);
  const auto freq = histogram_of(syms, 64);
  const auto book = HuffmanCodebook::build(freq);
  // Within a length class, codes increase with the symbol value.
  std::map<unsigned, std::pair<std::size_t, std::uint64_t>> last_by_len;
  for (std::size_t s = 0; s < 64; ++s) {
    const unsigned len = book.length(s);
    if (len == 0) continue;
    const auto it = last_by_len.find(len);
    if (it != last_by_len.end()) {
      EXPECT_GT(book.code(s), it->second.second);
    }
    last_by_len[len] = {s, book.code(s)};
  }
}

TEST(HuffmanCodebook, DegenerateAlphabets) {
  // Single live symbol still gets a decodable 1-bit code.
  std::vector<std::uint64_t> freq(16, 0);
  freq[5] = 1000;
  const auto book = HuffmanCodebook::build(freq);
  EXPECT_EQ(book.length(5), 1u);

  std::vector<quant_t> syms(100, 5);
  const auto enc = huffman_encode(syms, book);
  const auto dec = huffman_decode(enc, book);
  EXPECT_EQ(dec.symbols, syms);

  // Empty histogram builds an empty book.
  std::vector<std::uint64_t> none(16, 0);
  const auto empty = HuffmanCodebook::build(none);
  EXPECT_EQ(empty.max_length(), 0u);
}

TEST(HuffmanCodebook, TwoSymbolsGetOneBitEach) {
  std::vector<std::uint64_t> freq{10, 0, 0, 90};
  const auto book = HuffmanCodebook::build(freq);
  EXPECT_EQ(book.length(0), 1u);
  EXPECT_EQ(book.length(3), 1u);
  EXPECT_NE(book.code(0), book.code(3));
}

TEST(HuffmanCodebook, SerializationRoundTrip) {
  const auto syms = skewed_symbols(30000, 0.7, 1024, 5);
  const auto freq = histogram_of(syms, 1024);
  const auto book = HuffmanCodebook::build(freq);

  ByteWriter w;
  book.serialize(w);
  const auto bytes = w.take();
  ByteReader r(bytes);
  const auto restored = HuffmanCodebook::deserialize(r);

  ASSERT_EQ(restored.alphabet_size(), book.alphabet_size());
  for (std::size_t s = 0; s < 1024; ++s) {
    EXPECT_EQ(restored.length(s), book.length(s));
    EXPECT_EQ(restored.code(s), book.code(s));
  }
}

TEST(HuffmanCodebook, RejectsBadAlphabetSizes) {
  EXPECT_THROW((void)HuffmanCodebook::build({}), std::invalid_argument);
  std::vector<std::uint64_t> huge(65537, 1);
  EXPECT_THROW((void)HuffmanCodebook::build(huge), std::invalid_argument);
}

// ---- Chunked codec ---------------------------------------------------------

class HuffmanCodecParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, double, std::uint32_t>> {};

TEST_P(HuffmanCodecParam, RoundTrip) {
  const auto [n, p_top, chunk] = GetParam();
  const auto syms = skewed_symbols(n, p_top, 1024, static_cast<std::uint32_t>(n));
  const auto freq = histogram_of(syms, 1024);
  const auto book = HuffmanCodebook::build(freq);

  const auto enc = huffman_encode(syms, book, chunk);
  EXPECT_EQ(enc.num_symbols, n);
  // Offsets are monotone and the last equals the payload size.
  for (std::size_t c = 1; c < enc.chunk_offsets.size(); ++c) {
    EXPECT_LE(enc.chunk_offsets[c - 1], enc.chunk_offsets[c]);
  }
  EXPECT_EQ(enc.chunk_offsets.back(), enc.payload.size());

  const auto dec = huffman_decode(enc, book);
  EXPECT_EQ(dec.symbols, syms);
}

INSTANTIATE_TEST_SUITE_P(
    SizesSkewsChunks, HuffmanCodecParam,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{100}, std::size_t{4096},
                                         std::size_t{10000}, std::size_t{100001}),
                       ::testing::Values(0.2, 0.9),
                       ::testing::Values(std::uint32_t{64}, std::uint32_t{4096})));

// ---- Gap-array fine-grained decoding (paper reference [15]) ---------------

class HuffmanGapParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HuffmanGapParam, GapDecodingMatchesChunkDecoding) {
  const std::uint32_t gap = GetParam();
  const auto syms = skewed_symbols(50000, 0.8, 1024, 77);
  const auto freq = histogram_of(syms, 1024);
  const auto book = HuffmanCodebook::build(freq);

  const auto plain = huffman_encode(syms, book, 4096);
  const auto gapped = huffman_encode(syms, book, 4096, HuffmanEncVariant::kOptimized, gap);
  // Same payload bits; only metadata differs.
  EXPECT_EQ(gapped.payload, plain.payload);
  EXPECT_EQ(gapped.gaps.size(), (syms.size() + 4095) / 4096 * (4096 / gap));
  // First sub-block of every chunk starts at bit 0.
  for (std::size_t c = 0; c < gapped.chunk_offsets.size() - 1; ++c) {
    EXPECT_EQ(gapped.gaps[c * (4096 / gap)], 0u);
  }

  const auto dec = huffman_decode(gapped, book);
  EXPECT_EQ(dec.symbols, syms);
  // The gap decoder models at least as fast as the chunk-serial one (ref
  // [15]); strictly faster when the stride is shorter than the chunk.
  const auto plain_dec = huffman_decode(plain, book);
  if (gap < 4096) {
    EXPECT_LT(dec.cost.flops, plain_dec.cost.flops);
  } else {
    EXPECT_LE(dec.cost.flops, plain_dec.cost.flops);
  }
}

INSTANTIATE_TEST_SUITE_P(GapStrides, HuffmanGapParam, ::testing::Values(128, 256, 1024, 4096));

// --- Deflate against one BitWriter per chunk -----------------------------------

/// What the deflate kernel must produce: every chunk through one BitWriter
/// from its first symbol, sized from its code lengths and flushed, the gap
/// array holding the writer's bit count at each sub-block start.
struct ReferenceDeflate {
  std::vector<std::uint8_t> payload;
  std::vector<std::uint64_t> offsets{0};
  std::vector<std::uint32_t> gaps;
};

ReferenceDeflate reference_deflate(std::span<const quant_t> syms, const HuffmanCodebook& book,
                                   std::size_t chunk, std::uint32_t gap) {
  ReferenceDeflate ref;
  for (std::size_t lo = 0; lo < syms.size(); lo += chunk) {
    const std::size_t hi = std::min(lo + chunk, syms.size());
    std::uint64_t bits = 0;
    for (std::size_t i = lo; i < hi; ++i) bits += book.length(syms[i]);
    std::vector<std::uint8_t> bytes((bits + 7) / 8);
    BitWriter bw(bytes);
    for (std::size_t i = lo; i < hi; ++i) {
      if (gap > 0 && (i - lo) % gap == 0) {
        ref.gaps.push_back(static_cast<std::uint32_t>(bw.bit_count()));
      }
      bw.put(book.code(syms[i]), book.length(syms[i]));
    }
    bw.flush();
    EXPECT_EQ(bw.byte_count(), bytes.size());
    ref.payload.insert(ref.payload.end(), bytes.begin(), bytes.end());
    ref.offsets.push_back(ref.payload.size());
  }
  // A short last chunk's gap array is padded with zeros to whole chunks.
  if (gap > 0) ref.gaps.resize((ref.offsets.size() - 1) * (chunk / gap), 0);
  return ref;
}

/// Books whose longest code is 1, 12, 56, 57 and 63 bits: the word store
/// takes codes of up to 56 bits, and longer books take the BitWriter path.
std::vector<std::pair<unsigned, std::vector<std::uint64_t>>> deflate_books() {
  std::vector<std::uint64_t> two(1024, 0);
  two[3] = 5;
  two[700] = 2;
  return {{1, two},
          {12, fibonacci_freq(13, 1024)},
          {56, fibonacci_freq(57, 1024)},
          {57, fibonacci_freq(58, 1024)},
          {63, fibonacci_freq(64, 1024)}};
}

void expect_deflate_matches_reference(std::span<const quant_t> syms,
                                      const HuffmanCodebook& book, std::uint32_t chunk,
                                      std::uint32_t gap) {
  const ReferenceDeflate ref = reference_deflate(syms, book, chunk, gap);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const test::ScopedThreads scoped(threads);
    const auto enc = huffman_encode(syms, book, chunk, HuffmanEncVariant::kOptimized, gap);
    EXPECT_EQ(enc.payload, ref.payload);
    EXPECT_EQ(enc.chunk_offsets, ref.offsets);
    EXPECT_EQ(enc.gaps, ref.gaps);
  }
}

TEST(HuffmanDeflate, MatchesOneBitWriterPerChunk) {
  for (const auto& [longest, freq] : deflate_books()) {
    SCOPED_TRACE("longest code " + std::to_string(longest));
    const auto book = HuffmanCodebook::build(freq);
    ASSERT_EQ(book.max_length(), longest);
    for (const std::uint32_t chunk : {1u, 7u, 8u, 9u, 64u, 4096u}) {
      // Two full chunks, then a last chunk of 1 to 9 symbols (never more
      // than a whole chunk).
      for (std::uint32_t last = 1; last <= std::min(9u, chunk); ++last) {
        const std::size_t n = 2 * std::size_t{chunk} + last;
        SCOPED_TRACE("chunk " + std::to_string(chunk) + ", n " + std::to_string(n));
        const auto syms = uniform_live_symbols(freq, n, chunk * 16 + last);
        for (const std::uint32_t gap : {0u, 1u, 256u}) {
          if (gap > 0 && chunk % gap != 0) continue;
          SCOPED_TRACE("gap " + std::to_string(gap));
          expect_deflate_matches_reference(syms, book, chunk, gap);
        }
      }
    }
  }
}

TEST(HuffmanDeflate, ManyChunksMatchOneBitWriterPerChunk) {
  // Enough chunks that four threads each take several, with the same books.
  for (const auto& [longest, freq] : deflate_books()) {
    SCOPED_TRACE("longest code " + std::to_string(longest));
    const auto book = HuffmanCodebook::build(freq);
    const auto syms = uniform_live_symbols(freq, 9 * 4096 + 5, longest);
    for (const std::uint32_t gap : {0u, 1u, 256u}) {
      SCOPED_TRACE("gap " + std::to_string(gap));
      expect_deflate_matches_reference(syms, book, 4096, gap);
    }
  }
}

TEST(HuffmanGap, StrideMustDivideChunk) {
  const auto syms = skewed_symbols(1000, 0.5, 64, 3);
  const auto freq = histogram_of(syms, 64);
  const auto book = HuffmanCodebook::build(freq);
  EXPECT_THROW((void)huffman_encode(syms, book, 4096, HuffmanEncVariant::kOptimized, 1000),
               std::invalid_argument);
}

TEST(HuffmanGap, EndToEndThroughCompressor) {
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> data(30000);
  float acc = 0.0f;
  for (auto& x : data) {
    acc = 0.99f * acc + 0.05f * dist(rng);
    x = acc;
  }
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(1e-3);
  cfg.workflow = Workflow::kHuffman;
  cfg.huffman_gap_stride = 256;
  const auto c = Compressor(cfg).compress(data, Extents::d1(30000));
  const auto d = Compressor::decompress(c.bytes);
  double max_err = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    max_err = std::max(max_err, std::abs(static_cast<double>(data[i]) - d.data[i]));
  }
  EXPECT_LT(max_err, c.stats.eb_abs);
}

TEST(HuffmanCodec, EmptyInput) {
  std::vector<std::uint64_t> freq(16, 1);
  const auto book = HuffmanCodebook::build(freq);
  const auto enc = huffman_encode(std::vector<quant_t>{}, book);
  EXPECT_EQ(enc.num_symbols, 0u);
  const auto dec = huffman_decode(enc, book);
  EXPECT_TRUE(dec.symbols.empty());
}

TEST(HuffmanCodec, CompressionTracksEntropy) {
  const auto syms = skewed_symbols(100000, 0.95, 1024, 9);
  const auto freq = histogram_of(syms, 1024);
  const auto book = HuffmanCodebook::build(freq);
  const auto enc = huffman_encode(syms, book);
  const double bits_per_sym =
      static_cast<double>(enc.payload.size()) * 8.0 / static_cast<double>(syms.size());
  EXPECT_NEAR(bits_per_sym, book.average_bits(freq), 0.05);
}

TEST(HuffmanCodec, CorruptPayloadThrowsOrMisdecodes) {
  const auto syms = skewed_symbols(5000, 0.5, 256, 10);
  const auto freq = histogram_of(syms, 256);
  const auto book = HuffmanCodebook::build(freq);
  auto enc = huffman_encode(syms, book);
  enc.payload.resize(enc.payload.size() / 2);  // truncate
  enc.chunk_offsets.back() = enc.payload.size();
  bool failed = false;
  try {
    const auto dec = huffman_decode(enc, book);
    failed = dec.symbols != syms;
  } catch (const std::runtime_error&) {
    failed = true;
  }
  EXPECT_TRUE(failed);
}

}  // namespace
