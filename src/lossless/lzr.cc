#include "lossless/lzr.hh"

#include <algorithm>
#include <stdexcept>

#include "core/error.hh"
#include "core/huffman/bitio.hh"
#include "core/serialize.hh"
#include "core/rans.hh"
#include "sim/check.hh"

namespace szp::lossless {

namespace {

constexpr std::uint32_t kMagic = 0x525A4C53;  // "SLZR"

}  // namespace

std::vector<std::uint8_t> lzr_compress(std::span<const std::uint8_t> input,
                                       const Lz77Config& cfg) {
  const auto tokens = lz77_tokenize(input, cfg);

  std::vector<std::uint64_t> lit_freq(kLitLenAlphabet, 0);
  std::vector<std::uint64_t> dist_freq(kDistAlphabet, 0);
  lz77_token_frequencies(tokens, lit_freq, dist_freq);

  // Split the token stream into the rANS symbol streams and the extra-bits
  // sidecar.  Serial (the sidecar's bit offsets are order-dependent), so one
  // block; the output streams are block-owned heap state with exact bounds:
  // one lit symbol per token, at most one dist symbol per token, and at most
  // 5 + 13 extra bits per token.
  std::vector<std::uint16_t> lit_syms;
  std::vector<std::uint16_t> dist_syms;
  lit_syms.reserve(tokens.size());
  std::vector<std::uint8_t> extras;
  const auto n_tok = static_cast<std::int64_t>(tokens.size());
  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  chk::launch("lzr/token_split", 1,
              chk::bufs(chk::in(std::span<const Lz77Token>(tokens), "tokens")),
              ctr::contract(ctr::reads_all("tokens"),
                            ctr::host_sink("lit_syms", n_tok * 2),
                            ctr::host_sink("dist_syms", n_tok * 2),
                            ctr::host_sink("extras", (n_tok * 18 + 7) / 8)),
              [&](std::size_t, const auto& vtok) {
    // Pass 1 sizes the sidecar exactly; pass 2 splits and writes.
    std::uint64_t nbits = 0;
    for (std::size_t i = 0; i < vtok.size(); ++i) {
      const Lz77Token t = vtok[i];
      if (t.litlen_sym >= 257) nbits += kLenExtra[t.litlen_sym - 257u] + kDistExtra[t.dist_sym];
    }
    extras.resize((nbits + 7) / 8);
    BitWriter bw(extras);
    for (std::size_t i = 0; i < vtok.size(); ++i) {
      const Lz77Token t = vtok[i];
      lit_syms.push_back(t.litlen_sym);
      if (t.litlen_sym >= 257) {
        bw.put(t.len_extra, kLenExtra[t.litlen_sym - 257u]);
        dist_syms.push_back(t.dist_sym);
        bw.put(t.dist_extra, kDistExtra[t.dist_sym]);
      }
    }
    bw.flush();
  });

  const auto lit_model = RansModel::build(lit_freq);

  ByteWriter w;
  w.put(kMagic);
  w.put<std::uint64_t>(input.size());
  w.put<std::uint64_t>(lit_syms.size());
  w.put<std::uint64_t>(dist_syms.size());
  lit_model.serialize(w);
  w.put_vector(rans_encode(lit_syms, lit_model));
  if (!dist_syms.empty()) {
    const auto dist_model = RansModel::build(dist_freq);
    dist_model.serialize(w);
    w.put_vector(rans_encode(dist_syms, dist_model));
  }
  w.put_vector(extras);
  return w.take();
}

std::vector<std::uint8_t> lzr_decompress(std::span<const std::uint8_t> input) {
  return decode_guard("lzr archive", [&] {
  ByteReader r(input);
  r.set_segment("header");
  if (r.get<std::uint32_t>() != kMagic) {
    throw DecodeError(DecodeErrorKind::kBadMagic, "header", "not an SLZR stream");
  }
  const auto orig_size = r.get<std::uint64_t>();
  const auto n_tokens = r.get<std::uint64_t>();
  const auto n_matches = r.get<std::uint64_t>();
  // Every token expands to at least one output byte (bar the end marker) and
  // every match consumes a token, so both counts are bounded by the declared
  // size; reject splices before the rans_decode output allocations.
  if (n_tokens > orig_size + 1 || n_matches > n_tokens) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "token/match counts exceed the declared output size");
  }

  const auto lit_model = RansModel::deserialize(r);
  r.set_segment("rans stream");
  const auto lit_bytes = r.get_vector<std::uint8_t>();
  const auto lit_syms = rans_decode(lit_bytes, n_tokens, lit_model);

  std::vector<std::uint16_t> dist_syms;
  if (n_matches > 0) {
    const auto dist_model = RansModel::deserialize(r);
    r.set_segment("rans stream");
    const auto dist_bytes = r.get_vector<std::uint8_t>();
    dist_syms = rans_decode(dist_bytes, n_matches, dist_model);
  }
  r.set_segment("extra bits");
  const auto extra_bytes = r.get_vector<std::uint8_t>();

  std::vector<std::uint8_t> out;
  out.reserve(std::min<std::uint64_t>(orig_size, 1u << 20));
  // Serial token expansion: one block consuming the decoded symbol streams
  // and the extra-bits sidecar; the growing output is block-owned.
  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  chk::launch("lzr/expand", 1,
              chk::bufs(chk::in(std::span<const std::uint16_t>(lit_syms), "lit_syms"),
                        chk::in(std::span<const std::uint16_t>(dist_syms), "dist_syms"),
                        chk::in(std::span<const std::uint8_t>(extra_bytes), "extras")),
              // The expansion loop throws past orig_size, so the untrusted
              // header still yields an enforced store ceiling.
              ctr::contract(ctr::reads_all("lit_syms"), ctr::reads_all("dist_syms"),
                            ctr::reads_all("extras"),
                            ctr::host_sink("out", static_cast<std::int64_t>(std::min<
                                std::uint64_t>(orig_size, 1ull << 62)))),
              [&](std::size_t, const auto& vlit, const auto& vdist, const auto& vextras) {
    vextras.note_read(0, vextras.size());
    BitReader extras({vextras.data(), vextras.size()});
    std::size_t match = 0;
    for (std::size_t i = 0; i < vlit.size(); ++i) {
      Lz77Token t{};
      t.litlen_sym = vlit[i];
      if (t.litlen_sym >= 257) {
        const std::size_t lc = t.litlen_sym - 257u;
        if (lc >= kLenBase.size()) {
          throw DecodeError(DecodeErrorKind::kCorruptStream, "token streams", "bad length symbol");
        }
        t.len_extra = static_cast<std::uint16_t>(extras.get(kLenExtra[lc]));
        if (match >= vdist.size()) {
          throw DecodeError(DecodeErrorKind::kCorruptStream, "token streams",
                            "match/distance stream mismatch");
        }
        const std::uint16_t ds = vdist[match++];
        if (ds >= kDistBase.size()) {
          throw DecodeError(DecodeErrorKind::kCorruptStream, "token streams",
                            "bad distance symbol");
        }
        t.dist_sym = static_cast<std::uint8_t>(ds);
        t.dist_extra = static_cast<std::uint16_t>(extras.get(kDistExtra[ds]));
      }
      if (!lz77_expand(t, out)) break;
      if (out.size() > orig_size) {
        throw DecodeError(DecodeErrorKind::kCorruptStream, "token streams",
                          "decoded output exceeds the declared size");
      }
    }
  });
  if (out.size() != orig_size) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "token streams",
                      "decoded " + std::to_string(out.size()) + " bytes, header declared " +
                          std::to_string(orig_size));
  }
  return out;
  });
}

double lzr_ratio(std::span<const std::uint8_t> input) {
  if (input.empty()) return 0.0;
  const auto compressed = lzr_compress(input);
  return static_cast<double>(input.size()) / static_cast<double>(compressed.size());
}

}  // namespace szp::lossless
