// szp — the GPU-tier LosslessCodec implementations, one per Workflow:
// chunked Huffman, RLE, RLE+VLE (Huffman over both run streams), and rANS
// (eight lanes, plus the decode-only one-lane format of tag 3); and the
// codec table, which splices in the LZ family of lz_codecs.cc.  The
// section byte layouts and the PipelineReport stage names are pinned by the
// golden-archive tests.  The rANS estimate prices its stages with the
// formulas they report; the Huffman and RLE estimates are coarser than
// their stages' modeled costs and stay so, because kAuto's picks depend on
// them (codec.hh).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/codec/codec.hh"
#include "core/error.hh"
#include "core/huffman/codec.hh"
#include "core/rans.hh"
#include "core/rle/rle.hh"
#include "sim/histogram.hh"
#include "sim/timer.hh"

namespace szp::pipeline {

namespace {

/// The bytes of a Huffman section that the deflate fills: the gap array's
/// and the payload's.
struct HuffmanSlots {
  std::span<std::uint8_t> gaps;
  std::span<std::uint8_t> payload;
};

/// Write a Huffman section for `book` and the stream huffman_size_into()
/// sized into `enc`, all but the gap array's and the payload's bytes, which
/// come back for the caller to fill (empty when `w` counts).
HuffmanSlots write_huffman_head(ByteWriter& w, const HuffmanCodebook& book,
                                const HuffmanEncoded& enc) {
  book.serialize(w);
  w.put<std::uint64_t>(enc.num_symbols);
  w.put<std::uint32_t>(enc.chunk_size);
  w.put<std::uint32_t>(enc.gap_stride);
  w.put_vector(enc.chunk_offsets);
  HuffmanSlots slots;
  if (enc.gap_stride > 0) {
    w.put<std::uint64_t>(enc.gaps.size());
    slots.gaps = w.claim(enc.gaps.size() * sizeof(std::uint32_t));
  }
  w.put<std::uint64_t>(enc.chunk_offsets.back());
  slots.payload = w.claim(enc.chunk_offsets.back());
  return slots;
}

/// Copy `src` into a slot write_huffman_head() returned (nothing when it
/// counted).
void fill_slot(std::span<std::uint8_t> slot, const void* src) {
  if (!slot.empty()) std::memcpy(slot.data(), src, slot.size());
}

/// A whole Huffman section of an encoding huffman_encode_into() deflated
/// into enc.payload.
void write_huffman_section(ByteWriter& w, const HuffmanCodebook& book,
                           const HuffmanEncoded& enc) {
  const HuffmanSlots slots = write_huffman_head(w, book, enc);
  fill_slot(slots.gaps, enc.gaps.data());
  fill_slot(slots.payload, enc.payload.data());
}

/// A Huffman section as read from an archive: the codebook, the stream
/// metadata (enc.payload stays empty), and the payload as a view into the
/// archive, decoded in place.  Offsets and gaps are copied: they are u64/u32
/// values at arbitrary alignment in the archive.
struct HuffmanSection {
  HuffmanCodebook book;
  HuffmanEncoded enc;
  std::span<const std::uint8_t> payload;
};

HuffmanSection read_huffman_section(ByteReader& r) {
  HuffmanSection s;
  s.book = HuffmanCodebook::deserialize(r);
  r.set_segment("huffman stream");
  s.enc.num_symbols = r.get<std::uint64_t>();
  s.enc.chunk_size = r.get<std::uint32_t>();
  s.enc.gap_stride = r.get<std::uint32_t>();
  s.enc.chunk_offsets = r.get_vector<std::uint64_t>();
  if (s.enc.gap_stride > 0) s.enc.gaps = r.get_vector<std::uint32_t>();
  s.payload = r.get_bytes();
  return s;
}

/// Live (nonzero) histogram entries — the serialized size of the sparse
/// codebook/model forms depends on it.
std::size_t live_symbols(std::span<const std::uint64_t> freq) {
  std::size_t live = 0;
  for (const auto f : freq) live += f > 0 ? 1u : 0u;
  return live;
}

/// Projected run count of an RLE pass: geometric runs at change rate
/// (1 − p1), plus the u16 length cap splitting oversized runs.
double estimated_runs(const CodecSignals& sig) {
  const double n = static_cast<double>(sig.n);
  const double change = std::max(1e-12, 1.0 - sig.stats.p1);
  return std::max(1.0, std::max(n * change, n / 65535.0));
}

/// Serialized size of a sparse Huffman codebook (alphabet u32, live u32,
/// live × (symbol u32 + length u8)).
double huffman_book_bytes(std::size_t live) { return 8.0 + 5.0 * static_cast<double>(live); }

/// Fixed framing of one Huffman section beyond the codebook: num_symbols,
/// chunk_size, gap_stride, and the offsets/payload vector headers plus one
/// u64 offset per chunk (+1 sentinel).
double huffman_section_bytes(double symbols, std::uint32_t chunk) {
  const double chunks = std::ceil(symbols / std::max(1u, chunk)) + 1.0;
  return 8.0 + 4.0 + 4.0 + 8.0 + 8.0 * chunks + 8.0;
}

/// Estimated encode cost of a chunked-Huffman pass over `symbols` symbols at
/// `bits` bits each: coarser than the cost huffman_encode_into() reports.
sim::KernelCost huffman_encode_cost(double symbols, double bits, std::size_t book_live) {
  sim::KernelCost c;
  c.bytes_read = static_cast<std::uint64_t>(symbols) * sizeof(quant_t) + book_live * 9;
  c.bytes_written = static_cast<std::uint64_t>(symbols * bits / 8.0);
  c.flops = static_cast<std::uint64_t>(symbols) * 8;
  c.parallel_items = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(symbols));
  c.pattern = sim::AccessPattern::kScattered;
  c.custom_factor = 0.09;  // calibrated to Table VI Huffman rows
  c.launches = 3;          // chunk_sizes + scan + deflate
  return c;
}

/// Estimated decode cost of the chunked-Huffman inflate (bit-serial table
/// walk, compute-bound): coarser than the cost huffman_decode() reports.
sim::KernelCost huffman_decode_cost(double symbols, double bits, std::size_t book_live,
                                    std::uint32_t chunk) {
  sim::KernelCost c;
  c.bytes_read = static_cast<std::uint64_t>(symbols * bits / 8.0) + book_live * 9;
  c.bytes_written = static_cast<std::uint64_t>(symbols) * sizeof(quant_t);
  c.flops = static_cast<std::uint64_t>(symbols) *
            (130 + 320 * std::min<std::uint64_t>(chunk, 4096) / 4096);
  c.parallel_items = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(symbols));
  c.pattern = sim::AccessPattern::kCoalescedStreaming;
  return c;
}

class HuffmanCodec final : public LosslessCodec {
 public:
  [[nodiscard]] Workflow id() const override { return Workflow::kHuffman; }
  [[nodiscard]] const char* name() const override { return "huffman"; }

  void encode(std::span<const quant_t> quant, const EncodeContext& ctx, Workspace& ws,
              SectionSink& sink, sim::PipelineReport& report) const override {
    sim::Timer t;
    const auto book = HuffmanCodebook::build(ctx.freq);
    report.add({"huffman_book", ctx.original_bytes, t.seconds(), book.build_cost()});
    // The chunk sizes give the section's size, so the archive is allocated
    // before the deflate, which writes straight into it.  The encode stage
    // times the sizing and the deflate, not the archive writes between.
    t.reset();
    HuffmanEncoded& enc = ws.huffman;
    (void)huffman_size_into(quant, book, ctx.cfg.huffman_chunk, ctx.cfg.huffman_gap_stride, enc,
                            ws.huffman_chunk_bytes);
    double seconds = t.seconds();
    ByteWriter& w = sink.open(
        counted_size([&](ByteWriter& count) { (void)write_huffman_head(count, book, enc); }));
    const HuffmanSlots slots = write_huffman_head(w, book, enc);
    t.reset();
    huffman_deflate_into(quant, book, HuffmanEncVariant::kOptimized, enc, slots.payload);
    seconds += t.seconds();
    fill_slot(slots.gaps, enc.gaps.data());
    report.add({"huffman_encode", ctx.original_bytes, seconds, enc.cost});
  }

  void decode(ByteReader& r, const DecodeContext& ctx, sim::device_vector<quant_t>& out,
              sim::PipelineReport& report) const override {
    sim::Timer t;
    const auto s = read_huffman_section(r);
    const sim::KernelCost cost = huffman_decode_into(s.enc, s.payload, s.book, ctx.n, out);
    report.add({"huffman_decode", ctx.payload_bytes, t.seconds(), cost});
  }

  [[nodiscard]] CodecEstimate estimate(const CodecSignals& sig) const override {
    const std::size_t live = live_symbols(sig.freq);
    const double n = static_cast<double>(sig.n);
    CodecEstimate e;
    // On the near-geometric quant-code alphabets Huffman sits within a hair
    // of the entropy, so the selection estimate uses H itself; the codec's
    // real handicap — the one the paper's §III rule exploits — is the 1
    // bit/symbol floor (no code is shorter), which caps float CR at 32x.
    // Adding the Johnsen redundancy R⁻ here would hand rANS (H·1.01) a
    // spurious across-the-board ratio edge.
    e.payload_bits_per_symbol = std::max(1.0, sig.stats.entropy_bits);
    e.fixed_bytes = huffman_book_bytes(live) + huffman_section_bytes(n, sig.huffman_chunk);
    e.encode_cost = huffman_encode_cost(n, e.payload_bits_per_symbol, live);
    e.decode_cost = huffman_decode_cost(n, e.payload_bits_per_symbol, live, sig.huffman_chunk);
    return e;
  }
};

class RleCodec final : public LosslessCodec {
 public:
  [[nodiscard]] Workflow id() const override { return Workflow::kRle; }
  [[nodiscard]] const char* name() const override { return "rle"; }

  void encode(std::span<const quant_t> quant, const EncodeContext& ctx, Workspace&,
              SectionSink& sink, sim::PipelineReport& report) const override {
    sim::Timer t;
    const auto rle = rle_encode(quant);
    report.add({"rle_encode", ctx.original_bytes, t.seconds(), rle.cost});
    sink.write([&](ByteWriter& w) {
      w.put<std::uint64_t>(rle.num_symbols);
      w.put_vector(rle.values);
      w.put_vector(rle.counts);
    });
  }

  void decode(ByteReader& r, const DecodeContext& ctx, sim::device_vector<quant_t>& out,
              sim::PipelineReport& report) const override {
    sim::Timer t;
    RleEncoded rle;
    rle.num_symbols = r.get<std::uint64_t>();
    rle.values = r.get_vector<quant_t>();
    rle.counts = r.get_vector<std::uint16_t>();
    const sim::KernelCost cost = rle_decode_into(rle, ctx.n, out);
    report.add({"rle_decode", ctx.payload_bytes, t.seconds(), cost});
  }

  [[nodiscard]] CodecEstimate estimate(const CodecSignals& sig) const override {
    const double n = static_cast<double>(sig.n);
    const double runs = estimated_runs(sig);
    CodecEstimate e;
    // Each run costs 32 bits: u16 value + u16 count.
    e.payload_bits_per_symbol = 32.0 * runs / std::max(1.0, n);
    e.fixed_bytes = 8.0 + 16.0;  // num_symbols + two vector headers
    e.encode_cost.bytes_read = sig.n * sizeof(quant_t);
    e.encode_cost.bytes_written = static_cast<std::uint64_t>(runs) * 4;
    e.encode_cost.flops = sig.n;
    e.encode_cost.parallel_items = std::max<std::uint64_t>(1, sig.n);
    e.encode_cost.pattern = sim::AccessPattern::kCoalescedStreaming;
    e.encode_cost.launches = 2;  // tile_runs + merge
    e.decode_cost.bytes_read = static_cast<std::uint64_t>(runs) * 4;
    e.decode_cost.bytes_written = sig.n * sizeof(quant_t);
    e.decode_cost.flops = sig.n;
    e.decode_cost.parallel_items = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(runs));
    e.decode_cost.pattern = sim::AccessPattern::kCoalescedStreaming;
    return e;
  }
};

class RleVleCodec final : public LosslessCodec {
 public:
  [[nodiscard]] Workflow id() const override { return Workflow::kRleVle; }
  [[nodiscard]] const char* name() const override { return "rle+vle"; }

  void encode(std::span<const quant_t> quant, const EncodeContext& ctx, Workspace& ws,
              SectionSink& sink, sim::PipelineReport& report) const override {
    sim::Timer t;
    const auto rle = rle_encode(quant);
    report.add({"rle_encode", ctx.original_bytes, t.seconds(), rle.cost});
    t.reset();
    // VLE over both run streams (values and lengths), each with its own
    // codebook built from its own histogram.  The two short streams deflate
    // into scratch, the value stream into an encoding of its own and the
    // count stream into the workspace's, and the section copies both.
    sim::device_histogram_into<quant_t>(
        std::span<const quant_t>(rle.values.data(), rle.values.size()),
        ctx.cfg.quant.capacity, ws.vle_freq, ws.hist_priv);
    const auto vbook = HuffmanCodebook::build(ws.vle_freq);
    HuffmanEncoded values;
    huffman_encode_into(rle.values, vbook, ctx.cfg.huffman_chunk,
                        HuffmanEncVariant::kOptimized, 0, values, ws.huffman_chunk_bytes);
    sim::KernelCost vle_cost = values.cost;
    sim::device_histogram_into<std::uint16_t>(
        std::span<const std::uint16_t>(rle.counts.data(), rle.counts.size()), 65536,
        ws.vle_freq, ws.hist_priv);
    const auto cbook = HuffmanCodebook::build(ws.vle_freq);
    huffman_encode_into(std::span<const quant_t>(rle.counts.data(), rle.counts.size()), cbook,
                        ctx.cfg.huffman_chunk, HuffmanEncVariant::kOptimized, 0, ws.huffman,
                        ws.huffman_chunk_bytes);
    vle_cost += ws.huffman.cost;
    report.add({"rle_vle", ctx.original_bytes, t.seconds(), vle_cost});
    sink.write([&](ByteWriter& w) {
      w.put<std::uint64_t>(rle.num_symbols);
      write_huffman_section(w, vbook, values);
      write_huffman_section(w, cbook, ws.huffman);
    });
  }

  void decode(ByteReader& r, const DecodeContext& ctx, sim::device_vector<quant_t>& out,
              sim::PipelineReport& report) const override {
    sim::Timer t;
    RleEncoded rle;
    rle.num_symbols = r.get<std::uint64_t>();
    const auto vs = read_huffman_section(r);
    const auto cs = read_huffman_section(r);
    sim::device_vector<quant_t> values, counts;
    sim::KernelCost cost = huffman_decode_into(vs.enc, vs.payload, vs.book, vs.enc.num_symbols,
                                               values);
    cost += huffman_decode_into(cs.enc, cs.payload, cs.book, cs.enc.num_symbols, counts);
    rle.values.assign(values.begin(), values.end());
    rle.counts.assign(counts.begin(), counts.end());
    cost += rle_decode_into(rle, ctx.n, out);
    report.add({"rle_vle_decode", ctx.payload_bytes, t.seconds(), cost});
  }

  [[nodiscard]] CodecEstimate estimate(const CodecSignals& sig) const override {
    const double n = static_cast<double>(sig.n);
    const double runs = estimated_runs(sig);
    const std::size_t live = live_symbols(sig.freq);
    // The VLE pass compresses both 16-bit run streams.  Run values cycle
    // through the live alphabet (≈ log2(live) bits each, floored at 1);
    // run lengths cluster around the geometric mean, which canonical
    // Huffman codes in about log2(mean) + 2 bits.
    const double vbits = std::max(1.0, std::log2(static_cast<double>(std::max<std::size_t>(
                                            2, live))));
    const double mean_run = std::max(1.0, n / runs);
    const double cbits = std::max(1.0, std::log2(mean_run) + 2.0);
    CodecEstimate e;
    e.payload_bits_per_symbol = runs * (vbits + cbits) / std::max(1.0, n);
    // num_symbols + two Huffman sections: value book over the live quant
    // alphabet, count book over ~the distinct run lengths (bounded by runs).
    const double count_live = std::min(runs, 64.0);
    e.fixed_bytes = 8.0 + huffman_book_bytes(live) + huffman_section_bytes(runs, sig.huffman_chunk) +
                    huffman_book_bytes(static_cast<std::size_t>(count_live)) +
                    huffman_section_bytes(runs, sig.huffman_chunk);
    // RLE pass + two Huffman encodes over the (much shorter) run streams.
    e.encode_cost.bytes_read = sig.n * sizeof(quant_t);
    e.encode_cost.bytes_written = static_cast<std::uint64_t>(runs) * 4;
    e.encode_cost.flops = sig.n;
    e.encode_cost.parallel_items = std::max<std::uint64_t>(1, sig.n);
    e.encode_cost.pattern = sim::AccessPattern::kCoalescedStreaming;
    e.encode_cost.launches = 2;
    e.encode_cost += huffman_encode_cost(runs, vbits, live);
    e.encode_cost += huffman_encode_cost(runs, cbits, static_cast<std::size_t>(count_live));
    e.decode_cost = huffman_decode_cost(runs, vbits, live, sig.huffman_chunk);
    e.decode_cost +=
        huffman_decode_cost(runs, cbits, static_cast<std::size_t>(count_live), sig.huffman_chunk);
    sim::KernelCost expand;
    expand.bytes_read = static_cast<std::uint64_t>(runs) * 4;
    expand.bytes_written = sig.n * sizeof(quant_t);
    expand.flops = sig.n;
    expand.parallel_items = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(runs));
    expand.pattern = sim::AccessPattern::kCoalescedStreaming;
    e.decode_cost += expand;
    return e;
  }
};

/// rANS over the quant codes in `lanes` interleaved states (core/rans.hh).
/// Two instances: eight-lane kRans, the table row, and one-lane
/// kRansOneLane, which decodes archives written before kRans moved to eight
/// lanes and refuses to encode.
class RansCodec final : public LosslessCodec {
 public:
  RansCodec(Workflow id, unsigned lanes, const char* name)
      : id_(id), lanes_(lanes), name_(name) {}

  [[nodiscard]] Workflow id() const override { return id_; }
  [[nodiscard]] const char* name() const override { return name_; }

  void encode(std::span<const quant_t> quant, const EncodeContext& ctx, Workspace& ws,
              SectionSink& sink, sim::PipelineReport& report) const override {
    if (id_ == Workflow::kRansOneLane) {
      throw std::invalid_argument(
          "workflow tag 3 (one-lane rans) is decode-only; encode with Workflow::kRans");
    }
    sim::Timer t;
    const auto model = RansModel::build(ctx.freq);
    const std::span<const std::uint8_t> enc = rans_encode_into(
        std::span<const std::uint16_t>(quant.data(), quant.size()), model, lanes_,
        ws.rans_stream);
    sim::KernelCost cost;
    cost.bytes_read = quant.size_bytes();
    cost.bytes_written = enc.size();
    cost.flops = quant.size() * 20;  // div/mod state updates
    cost.parallel_items = quant.size();
    cost.pattern = sim::AccessPattern::kScattered;
    cost.custom_factor = 0.06;  // ANS is heavier per symbol than Huffman
    cost.launches = 3;          // model build + reverse-order encode + concat
    report.add({"rans_encode", ctx.original_bytes, t.seconds(), cost});
    sink.write([&](ByteWriter& w) {
      model.serialize(w);
      w.put<std::uint64_t>(quant.size());
      w.put_span(enc);
    });
  }

  void decode(ByteReader& r, const DecodeContext& ctx, sim::device_vector<quant_t>& out,
              sim::PipelineReport& report) const override {
    sim::Timer t;
    const auto model = RansModel::deserialize(r);
    r.set_segment("quant-codes");
    const auto count = r.get<std::uint64_t>();
    if (count != ctx.n) {
      // The decoder fills exactly the grid's n symbols, so a spliced count
      // is refused here, before the stream is read.
      throw DecodeError(DecodeErrorKind::kCorruptStream, "quant-codes",
                        "rans symbol count " + std::to_string(count) +
                            " does not match the " + std::to_string(ctx.n) + "-element grid");
    }
    out.resize(ctx.n);
    r.set_segment("rans stream");
    const auto enc = r.get_bytes();
    rans_decode_into(enc, model, out, lanes_);
    sim::KernelCost cost;
    cost.bytes_read = enc.size();
    cost.bytes_written = count * sizeof(quant_t);
    cost.flops = count * 450;  // serial state chain, like Huffman decode
    cost.parallel_items = count;
    cost.pattern = sim::AccessPattern::kCoalescedStreaming;
    report.add({"rans_decode", ctx.payload_bytes, t.seconds(), cost});
  }

  [[nodiscard]] CodecEstimate estimate(const CodecSignals& sig) const override {
    const std::size_t live = live_symbols(sig.freq);
    const double n = static_cast<double>(sig.n);
    CodecEstimate e;
    // Range-ANS codes at the entropy with no 1-bit floor; the 12-bit
    // quantized probabilities cost a small multiplicative excess, and the
    // final flush adds 4 bytes per lane.
    e.payload_bits_per_symbol =
        sig.stats.entropy_bits * 1.01 + 32.0 * lanes_ / std::max(1.0, n);
    // Sparse model table: alphabet u32 + live u32 + live × (sym u16 + freq
    // u16), plus symbol count and payload vector header.
    e.fixed_bytes = 8.0 + 4.0 * static_cast<double>(live) + 8.0 + 8.0;
    // The modeled kernels are the paper-device costs of one rANS pass; the
    // host's lanes do not change them.
    e.encode_cost.bytes_read = sig.n * sizeof(quant_t);
    e.encode_cost.bytes_written =
        static_cast<std::uint64_t>(n * e.payload_bits_per_symbol / 8.0);
    e.encode_cost.flops = sig.n * 20;
    e.encode_cost.parallel_items = std::max<std::uint64_t>(1, sig.n);
    e.encode_cost.pattern = sim::AccessPattern::kScattered;
    e.encode_cost.custom_factor = 0.06;
    e.encode_cost.launches = 3;  // mirrors the stage: build + encode + concat
    e.decode_cost.bytes_read = e.encode_cost.bytes_written;
    e.decode_cost.bytes_written = sig.n * sizeof(quant_t);
    e.decode_cost.flops = sig.n * 450;
    e.decode_cost.parallel_items = std::max<std::uint64_t>(1, sig.n);
    e.decode_cost.pattern = sim::AccessPattern::kCoalescedStreaming;
    return e;
  }

 private:
  Workflow id_;
  unsigned lanes_;
  const char* name_;
};

}  // namespace

/// The LZ-family rows of the table (kLz77, kLzh, kLzr), defined next to
/// their classes in lz_codecs.cc.
std::array<const LosslessCodec*, 3> lz_codecs();

std::span<const LosslessCodec* const> codecs() {
  static const HuffmanCodec huffman;
  static const RleCodec rle;
  static const RleVleCodec rle_vle;
  static const RansCodec rans(Workflow::kRans, kRansLanes, "rans");
  static const auto lz = lz_codecs();
  static const std::array<const LosslessCodec*, 7> table{
      &huffman, &rle, &rle_vle, &rans, lz[0], lz[1], lz[2]};
  return table;
}

const LosslessCodec& codec(Workflow wf) {
  static const RansCodec one_lane(Workflow::kRansOneLane, 1, "rans-one-lane");
  if (wf == Workflow::kRansOneLane) return one_lane;
  for (const LosslessCodec* c : codecs()) {
    if (c->id() == wf) return *c;
  }
  throw std::logic_error("no codec for workflow tag " +
                         std::to_string(static_cast<unsigned>(wf)));  // kAuto (255) included
}

}  // namespace szp::pipeline

