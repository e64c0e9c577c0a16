// szp — the LZ77-family quant-code codecs: lz77 (raw tokens), lzh (LZ77 +
// canonical Huffman, the gzip stand-in) and lzr (LZ77 + rANS, the Zstd
// stand-in).  These wrap the byte-level lossless tier (src/lossless/) as
// pipeline codecs: quant-codes are packed to a little-endian byte stream by
// a registered tile kernel, the LZ machinery runs over the bytes, and the
// decode side validates every declared size against the header-derived
// element count before allocating (DecodeError taxonomy throughout).
//
// The paper's reference schemes qg/qhg bolt gzip onto the *host* after the
// GPU stages (§II-A, Table I); these codecs reproduce that tier inside the
// archive format so the selector can price it against the GPU codecs — the
// LZ parse is serial (parallel_items = 1), and the cost model makes that
// penalty visible instead of hiding it off-pipeline.
#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "core/codec/codec.hh"
#include "core/error.hh"
#include "lossless/lz77.hh"
#include "lossless/lzh.hh"
#include "lossless/lzr.hh"
#include "sim/check.hh"
#include "sim/launch.hh"
#include "sim/timer.hh"

namespace szp::pipeline {

namespace {

namespace chk = sim::checked;
namespace ctr = sim::contract;

constexpr std::size_t kPackTile = 1 << 14;

/// quant_t (u16) -> little-endian byte stream, tile-parallel.  Fills
/// `bytes` (capacity-preserving; callers pass Workspace::codec_bytes).
void quant_pack(std::span<const quant_t> quant, std::vector<std::uint8_t>& bytes) {
  const std::size_t n = quant.size();
  bytes.resize(n * sizeof(quant_t));
  constexpr auto kTile64 = static_cast<std::int64_t>(kPackTile);
  chk::launch("codec/quant_pack", sim::div_ceil(n, kPackTile),
              chk::bufs(chk::in(quant, "quant"),
                        chk::out(std::span<std::uint8_t>(bytes), "bytes")),
              ctr::contract(ctr::reads("quant", ctr::b() * kTile64, kTile64).clamp(),
                            ctr::writes("bytes", ctr::b() * 2 * kTile64, 2 * kTile64).clamp()),
              [&, n](std::size_t t, const auto& vq, const auto& vb) {
    const std::size_t lo = t * kPackTile;
    const std::size_t hi = std::min(lo + kPackTile, n);
    for (std::size_t i = lo; i < hi; ++i) {
      chk::this_thread(static_cast<std::uint32_t>(i - lo));
      const auto q = static_cast<std::uint16_t>(vq[i]);
      vb[2 * i] = static_cast<std::uint8_t>(q & 0xffu);
      vb[2 * i + 1] = static_cast<std::uint8_t>(q >> 8);
    }
  });
}

/// Little-endian byte stream -> quant_t span (mirror of quant_pack).  The
/// byte count was validated against 2 * out.size() by the caller.
void quant_unpack(std::span<const std::uint8_t> bytes, std::span<quant_t> out) {
  const std::size_t n = out.size();
  constexpr auto kTile64 = static_cast<std::int64_t>(kPackTile);
  chk::launch("codec/quant_unpack", sim::div_ceil(n, kPackTile),
              chk::bufs(chk::in(bytes, "bytes"), chk::out(out, "quant")),
              ctr::contract(ctr::reads("bytes", ctr::b() * 2 * kTile64, 2 * kTile64).clamp(),
                            ctr::writes("quant", ctr::b() * kTile64, kTile64).clamp()),
              [&, n](std::size_t t, const auto& vb, const auto& vq) {
    const std::size_t lo = t * kPackTile;
    const std::size_t hi = std::min(lo + kPackTile, n);
    for (std::size_t i = lo; i < hi; ++i) {
      chk::this_thread(static_cast<std::uint32_t>(i - lo));
      vq[i] = static_cast<quant_t>(static_cast<std::uint16_t>(vb[2 * i]) |
                                   (static_cast<std::uint16_t>(vb[2 * i + 1]) << 8));
    }
  });
}

/// Expanded byte-stream size must equal the packed quant-code stream.
void require_packed_size(std::size_t got, std::size_t n, const char* codec) {
  if (got != n * sizeof(quant_t)) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "quant-codes",
                      std::string(codec) + " stream expands to " + std::to_string(got) +
                          " bytes, the " + std::to_string(n) + "-element grid packs to " +
                          std::to_string(n * sizeof(quant_t)));
  }
}

// --- Shared histogram-only LZ projection ----------------------------------

/// What the estimate() heuristics project about an LZ77 parse of the packed
/// byte stream, from the quant histogram alone.
struct LzProjection {
  double match_tokens_per_sym = 0.0;  ///< match tokens per quant symbol
  double lit_bytes_per_sym = 0.0;     ///< literal bytes per quant symbol
  double lit_entropy_bits = 0.0;      ///< projected bits per literal byte
};

LzProjection project_lz(const CodecSignals& sig) {
  LzProjection p;
  const double change = std::max(1e-12, 1.0 - sig.stats.p1);
  // Runs of the dominant symbol pack to 2/(1-p1)-byte repeats; the parse
  // covers them with matches once they clear the 3-byte minimum, leaving a
  // literal head per run.  Matches cap at 258 bytes.
  const double run_bytes = 2.0 / change;
  const double match_cov =
      run_bytes > 3.0 ? std::min(0.98, sig.stats.p1 * (run_bytes - 3.0) / run_bytes) : 0.0;
  const double match_len = std::clamp(run_bytes, 3.0, 258.0);
  p.match_tokens_per_sym = 2.0 * match_cov / match_len;
  p.lit_bytes_per_sym = 2.0 * (1.0 - match_cov);
  // Splitting a quant code into two bytes costs an order-0 byte coder the
  // high↔low mutual information on top of the halved entropy; the +2.4
  // excess is calibrated against measured lzh/lzr sections on iid noise
  // (test_selector_model.cc holds the ordering against remeasurement).
  p.lit_entropy_bits = std::clamp((sig.stats.entropy_bits + 2.4) / 2.0, 0.05, 8.0);
  return p;
}

/// The serial hash-chain parse: traffic over input + chains, no
/// parallelism (one block).  This is the honest price of the host-style
/// dictionary tier and why the selector only picks LZ under ratio-heavy
/// objectives.
sim::KernelCost lz_parse_cost(std::size_t n) {
  sim::KernelCost c;
  const std::uint64_t bytes = n * sizeof(quant_t);
  c.bytes_read = bytes * 10;  // hash probes + match compares along the chain
  c.bytes_written = bytes / 3;
  c.flops = bytes * 50;
  c.parallel_items = 1;  // greedy parse is serial
  c.pattern = sim::AccessPattern::kScattered;
  return c;
}

/// The serial expansion of `stream_bytes` of tokens back to the packed
/// n-code byte stream.
sim::KernelCost lz_expand_cost(std::size_t n, std::uint64_t stream_bytes) {
  sim::KernelCost c;
  const std::uint64_t bytes = n * sizeof(quant_t);
  c.bytes_read = stream_bytes + bytes;
  c.bytes_written = bytes;
  c.flops = bytes * 5;
  c.parallel_items = 1;  // back-references serialize the expansion
  c.pattern = sim::AccessPattern::kCoalescedStreaming;
  return c;
}

/// Pack/unpack tile kernels are coalesced n-way streams.
sim::KernelCost pack_cost(std::size_t n) {
  sim::KernelCost c;
  c.bytes_read = n * sizeof(quant_t);
  c.bytes_written = n * sizeof(quant_t);
  c.flops = n;
  c.parallel_items = std::max<std::uint64_t>(1, n);
  c.pattern = sim::AccessPattern::kCoalescedStreaming;
  return c;
}

/// The modeled encode stage, priced by estimate() and reported by encode():
/// the pack kernel, then the parse.  The LZ kernels' contracts describe
/// host-only tables (the hash head, a chain link per input byte, per-tile
/// token-frequency rows), so no stage takes its traffic from them.
sim::KernelCost lz_encode_cost(std::size_t n) {
  sim::KernelCost c = pack_cost(n);
  c += lz_parse_cost(n);
  return c;
}

/// The modeled decode stage: the expansion of `stream_bytes`, then the
/// unpack kernel.  estimate() prices the projected payload, decode() the
/// section it read.
sim::KernelCost lz_decode_cost(std::size_t n, std::uint64_t stream_bytes) {
  sim::KernelCost c = lz_expand_cost(n, stream_bytes);
  c += pack_cost(n);
  return c;
}

/// Projected payload bytes of an estimate.
std::uint64_t payload_bytes(const CodecEstimate& e, std::size_t n) {
  return static_cast<std::uint64_t>(e.payload_bits_per_symbol * static_cast<double>(n) / 8.0);
}

// --- lz77: raw token stream -------------------------------------------------

class Lz77Codec final : public LosslessCodec {
 public:
  [[nodiscard]] Workflow id() const override { return Workflow::kLz77; }
  [[nodiscard]] const char* name() const override { return "lz77"; }

  void encode(std::span<const quant_t> quant, const EncodeContext& ctx, Workspace& ws,
              SectionSink& sink, sim::PipelineReport& report) const override {
    sim::Timer t;
    quant_pack(quant, ws.codec_bytes);
    const auto tokens = lossless::lz77_tokenize(ws.codec_bytes);
    sim::KernelCost cost = lz_encode_cost(quant.size());
    cost.flops = quant.size_bytes() * 50;
    cost.parallel_items = 1;  // greedy parse is serial
    cost.pattern = sim::AccessPattern::kScattered;
    report.add({"lz77_encode", ctx.original_bytes, t.seconds(), cost});
    sink.write([&](ByteWriter& w) {
      w.put<std::uint64_t>(tokens.size());
      for (const auto& tok : tokens) {
        w.put<std::uint16_t>(tok.litlen_sym);
        w.put<std::uint16_t>(tok.len_extra);
        w.put<std::uint8_t>(tok.dist_sym);
        w.put<std::uint16_t>(tok.dist_extra);
      }
    });
  }

  void decode(ByteReader& r, const DecodeContext& ctx, sim::device_vector<quant_t>& out,
              sim::PipelineReport& report) const override {
    sim::Timer t;
    const std::size_t section_start = r.position();
    r.set_segment("quant-codes");
    const auto count = r.get<std::uint64_t>();
    constexpr std::size_t kTokenBytes = 7;
    if (count == 0 || count > r.remaining() / kTokenBytes) {
      // Validated against the remaining bytes before the token loop so a
      // spliced count cannot drive allocation or a long parse.
      throw DecodeError(DecodeErrorKind::kLengthOverflow, "quant-codes",
                        "lz77 token count " + std::to_string(count) + " x " +
                            std::to_string(kTokenBytes) + " bytes exceeds the " +
                            std::to_string(r.remaining()) + " remaining");
    }
    // A well-formed token expands to at most 258 bytes, so the reserve is
    // bounded by the token count as well as by the grid.
    const std::size_t packed = ctx.n * sizeof(quant_t);
    std::vector<std::uint8_t> bytes;
    bytes.reserve(std::min<std::size_t>(packed, count * 258));
    for (std::uint64_t i = 0; i < count; ++i) {
      lossless::Lz77Token tok;
      tok.litlen_sym = r.get<std::uint16_t>();
      tok.len_extra = r.get<std::uint16_t>();
      tok.dist_sym = r.get<std::uint8_t>();
      tok.dist_extra = r.get<std::uint16_t>();
      const bool more = lossless::lz77_expand(tok, bytes);
      if (!more && i + 1 != count) {
        throw DecodeError(DecodeErrorKind::kCorruptStream, "quant-codes",
                          "lz77 end-of-block token before the declared stream end");
      }
      if (more && i + 1 == count) {
        throw DecodeError(DecodeErrorKind::kCorruptStream, "quant-codes",
                          "lz77 token stream is missing the end-of-block token");
      }
      if (bytes.size() > packed) {
        throw DecodeError(DecodeErrorKind::kCorruptStream, "quant-codes",
                          "lz77 stream expands past the " + std::to_string(ctx.n) +
                              "-element grid");
      }
    }
    require_packed_size(bytes.size(), ctx.n, "lz77");
    out.resize(ctx.n);
    quant_unpack(bytes, out);
    sim::KernelCost cost = lz_decode_cost(ctx.n, r.position() - section_start);
    cost.flops = packed * 5;
    cost.parallel_items = 1;
    report.add({"lz77_decode", ctx.payload_bytes, t.seconds(), cost});
  }

  [[nodiscard]] CodecEstimate estimate(const CodecSignals& sig) const override {
    const LzProjection p = project_lz(sig);
    CodecEstimate e;
    // Raw tokens are 7 bytes each, literals included.
    e.payload_bits_per_symbol = 56.0 * (p.match_tokens_per_sym + p.lit_bytes_per_sym);
    e.fixed_bytes = 8.0 + 56.0;  // token count + end-of-block token
    e.encode_cost = lz_encode_cost(sig.n);
    e.decode_cost = lz_decode_cost(sig.n, payload_bytes(e, sig.n));
    return e;
  }
};

// --- lzh / lzr: LZ77 + entropy stage over the packed bytes ------------------

/// Common encode/decode shell of the two entropy-coded LZ codecs; the
/// compress/expand calls and estimate constants differ.
template <typename Derived>
class LzEntropyCodec : public LosslessCodec {
 public:
  void encode(std::span<const quant_t> quant, const EncodeContext& ctx, Workspace& ws,
              SectionSink& sink, sim::PipelineReport& report) const override {
    sim::Timer t;
    quant_pack(quant, ws.codec_bytes);
    const auto payload = Derived::compress_bytes(ws.codec_bytes);
    sim::KernelCost cost = lz_encode_cost(quant.size());
    cost.flops = quant.size_bytes() * 50;
    cost.parallel_items = 1;  // greedy parse is serial
    cost.pattern = sim::AccessPattern::kScattered;
    report.add({Derived::kEncodeStage, ctx.original_bytes, t.seconds(), cost});
    sink.write([&](ByteWriter& w) { w.put_vector(payload); });
  }

  void decode(ByteReader& r, const DecodeContext& ctx, sim::device_vector<quant_t>& out,
              sim::PipelineReport& report) const override {
    sim::Timer t;
    const std::size_t section_start = r.position();
    r.set_segment("quant-codes");
    // get_bytes() validates the declared length against the remaining bytes
    // before anything is allocated; the nested stream validates its own
    // declared original size before reserving (lzh.cc / lzr.cc).
    const auto payload = r.get_bytes();
    const auto bytes = Derived::decompress_bytes(payload);
    require_packed_size(bytes.size(), ctx.n, Derived::kName);
    out.resize(ctx.n);
    quant_unpack(bytes, out);
    sim::KernelCost cost = lz_decode_cost(ctx.n, r.position() - section_start);
    cost.flops = ctx.n * sizeof(quant_t) * 5;
    cost.parallel_items = 1;
    report.add({Derived::kDecodeStage, ctx.payload_bytes, t.seconds(), cost});
  }

  [[nodiscard]] CodecEstimate estimate(const CodecSignals& sig) const override {
    const LzProjection p = project_lz(sig);
    CodecEstimate e;
    e.payload_bits_per_symbol = Derived::kMatchTokenBits * p.match_tokens_per_sym +
                                Derived::lit_bits_per_byte(p.lit_entropy_bits) * p.lit_bytes_per_sym;
    e.fixed_bytes = Derived::kFixedBytes;
    e.encode_cost = lz_encode_cost(sig.n);
    e.decode_cost = lz_decode_cost(sig.n, payload_bytes(e, sig.n));
    return e;
  }
};

class LzhCodec final : public LzEntropyCodec<LzhCodec> {
 public:
  static constexpr const char* kName = "lzh";
  static constexpr const char* kEncodeStage = "lzh_encode";
  static constexpr const char* kDecodeStage = "lzh_decode";
  /// Length code + extras + distance code + extras under the canonical
  /// books (DEFLATE-shaped averages).
  static constexpr double kMatchTokenBits = 22.0;
  /// Huffman literals: 1-bit floor per literal byte, same cliff as the
  /// native Huffman codec's per-symbol floor.
  static double lit_bits_per_byte(double entropy) { return std::max(1.0, entropy); }
  /// Two serialized codebooks + stream framing.
  static constexpr double kFixedBytes = 220.0;

  [[nodiscard]] Workflow id() const override { return Workflow::kLzh; }
  [[nodiscard]] const char* name() const override { return kName; }

  static std::vector<std::uint8_t> compress_bytes(std::span<const std::uint8_t> bytes) {
    return lossless::lzh_compress(bytes);
  }
  static std::vector<std::uint8_t> decompress_bytes(std::span<const std::uint8_t> payload) {
    return lossless::lzh_decompress(payload);
  }
};

class LzrCodec final : public LzEntropyCodec<LzrCodec> {
 public:
  static constexpr const char* kName = "lzr";
  static constexpr const char* kEncodeStage = "lzr_encode";
  static constexpr const char* kDecodeStage = "lzr_decode";
  /// rANS codes the token streams at their entropy — slightly below the
  /// Huffman-coded average.
  static constexpr double kMatchTokenBits = 20.0;
  /// rANS literals: fractional bits with the same 1% quantized-probability
  /// excess as the native rANS codec, no floor.
  static double lit_bits_per_byte(double entropy) { return entropy * 1.01; }
  /// Two serialized rANS models + stream framing.
  static constexpr double kFixedBytes = 260.0;

  [[nodiscard]] Workflow id() const override { return Workflow::kLzr; }
  [[nodiscard]] const char* name() const override { return kName; }

  static std::vector<std::uint8_t> compress_bytes(std::span<const std::uint8_t> bytes) {
    return lossless::lzr_compress(bytes);
  }
  static std::vector<std::uint8_t> decompress_bytes(std::span<const std::uint8_t> payload) {
    return lossless::lzr_decompress(payload);
  }
};

}  // namespace

/// The table's rows kLz77, kLzh and kLzr (codecs() in builtin_codecs.cc).
std::array<const LosslessCodec*, 3> lz_codecs() {
  static const Lz77Codec lz77;
  static const LzhCodec lzh;
  static const LzrCodec lzr;
  return {&lz77, &lzh, &lzr};
}

}  // namespace szp::pipeline

