#include "lossless/lzh.hh"

#include <algorithm>
#include <stdexcept>

#include "core/error.hh"
#include "core/huffman/bitio.hh"
#include "core/huffman/codebook.hh"
#include "core/serialize.hh"
#include "sim/check.hh"

namespace szp::lossless {

namespace {

constexpr std::uint32_t kMagic = 0x485A4C53;  // "SLZH"

}  // namespace

std::vector<std::uint8_t> lzh_compress(std::span<const std::uint8_t> input,
                                       const Lz77Config& cfg) {
  const auto tokens = lz77_tokenize(input, cfg);

  std::vector<std::uint64_t> lit_freq(kLitLenAlphabet, 0);
  std::vector<std::uint64_t> dist_freq(kDistAlphabet, 0);
  lz77_token_frequencies(tokens, lit_freq, dist_freq);

  const auto lit_book = HuffmanCodebook::build(lit_freq);
  const auto dist_book = HuffmanCodebook::build(dist_freq);

  ByteWriter w;
  w.put(kMagic);
  w.put<std::uint64_t>(input.size());
  lit_book.serialize(w);
  dist_book.serialize(w);

  // Bit emission is serial (each token's offset depends on all earlier
  // lengths), so one block; the bitstream is block-owned heap state.  The
  // store side is still bounded: no token can emit more than both books'
  // longest codes plus the maximum extra bits (5 length + 13 distance).
  const std::uint64_t max_token_bits =
      lit_book.max_length() + 5ull + dist_book.max_length() + 13ull;
  const std::uint64_t sink_bytes = (tokens.size() * max_token_bits + 7) / 8;
  // One token's (code, length) fields in stream order; run once to size the
  // bitstream exactly and once to write it.
  const auto emit = [&](const Lz77Token& t, auto&& put) {
    put(lit_book.code(t.litlen_sym), lit_book.length(t.litlen_sym));
    if (t.litlen_sym >= 257) {
      put(t.len_extra, kLenExtra[t.litlen_sym - 257u]);
      put(dist_book.code(t.dist_sym), dist_book.length(t.dist_sym));
      put(t.dist_extra, kDistExtra[t.dist_sym]);
    }
  };
  std::vector<std::uint8_t> bits;
  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  chk::launch("lzh/encode", 1,
              chk::bufs(chk::in(std::span<const Lz77Token>(tokens), "tokens")),
              ctr::contract(ctr::reads_all("tokens"),
                            ctr::host_sink("bitstream",
                                           static_cast<std::int64_t>(sink_bytes))),
              [&](std::size_t, const auto& vtok) {
    std::uint64_t nbits = 0;
    for (std::size_t i = 0; i < vtok.size(); ++i) {
      emit(vtok[i], [&](std::uint64_t, unsigned len) { nbits += len; });
    }
    bits.resize((nbits + 7) / 8);
    BitWriter bw(bits);
    for (std::size_t i = 0; i < vtok.size(); ++i) {
      emit(vtok[i], [&](std::uint64_t code, unsigned len) { bw.put(code, len); });
    }
    bw.flush();
  });
  w.put_vector(bits);
  return w.take();
}

std::vector<std::uint8_t> lzh_decompress(std::span<const std::uint8_t> input) {
  return decode_guard("lzh archive", [&] {
  ByteReader r(input);
  r.set_segment("header");
  if (r.get<std::uint32_t>() != kMagic) {
    throw DecodeError(DecodeErrorKind::kBadMagic, "header", "not an SLZH stream");
  }
  const auto orig_size = r.get<std::uint64_t>();
  auto lit_book = HuffmanCodebook::deserialize(r);
  auto dist_book = HuffmanCodebook::deserialize(r);
  r.set_segment("bitstream");
  const auto bits = r.get_vector<std::uint8_t>();

  std::vector<std::uint8_t> out;
  // The declared size is untrusted: cap the speculative reservation and let
  // the vector grow naturally; the decode loop is bounded by the bitstream.
  out.reserve(std::min<std::uint64_t>(orig_size, 1u << 20));
  // Serial bit-level decode: one block reading the whole bitstream; the
  // growing output is block-owned heap state.
  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  // The expansion loop throws the moment the output exceeds the declared
  // size, so orig_size is an enforced store ceiling even though the header
  // is untrusted (the *allocation* above stays capped regardless).
  chk::launch("lzh/decode", 1,
              chk::bufs(chk::in(std::span<const std::uint8_t>(bits), "bits")),
              ctr::contract(ctr::reads_all("bits"),
                            ctr::host_sink("out", static_cast<std::int64_t>(std::min<
                                std::uint64_t>(orig_size, 1ull << 62)))),
              [&](std::size_t, const auto& vbits) {
    vbits.note_read(0, vbits.size());
    BitReader br({vbits.data(), vbits.size()});
    for (;;) {
      Lz77Token t{};
      t.litlen_sym = static_cast<std::uint16_t>(lit_book.decode_one(br));
      if (t.litlen_sym >= 257) {
        const std::size_t lc = t.litlen_sym - 257u;
        if (lc >= kLenBase.size()) {
          throw DecodeError(DecodeErrorKind::kCorruptStream, "bitstream", "bad length symbol");
        }
        t.len_extra = static_cast<std::uint16_t>(br.get(kLenExtra[lc]));
        t.dist_sym = static_cast<std::uint8_t>(dist_book.decode_one(br));
        if (t.dist_sym >= kDistBase.size()) {
          throw DecodeError(DecodeErrorKind::kCorruptStream, "bitstream", "bad distance symbol");
        }
        t.dist_extra = static_cast<std::uint16_t>(br.get(kDistExtra[t.dist_sym]));
      }
      if (!lz77_expand(t, out)) break;
      if (out.size() > orig_size) {
        throw DecodeError(DecodeErrorKind::kCorruptStream, "bitstream",
                          "decoded output exceeds the declared size");
      }
    }
  });
  if (out.size() != orig_size) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "bitstream",
                      "decoded " + std::to_string(out.size()) + " bytes, header declared " +
                          std::to_string(orig_size));
  }
  return out;
  });
}

double lzh_ratio(std::span<const std::uint8_t> input) {
  if (input.empty()) return 0.0;
  const auto compressed = lzh_compress(input);
  return static_cast<double>(input.size()) / static_cast<double>(compressed.size());
}

}  // namespace szp::lossless
