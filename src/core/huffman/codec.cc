#include "core/huffman/codec.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <stdexcept>

#include "core/huffman/bitio.hh"
#include "sim/check.hh"
#include "sim/device_scan.hh"
#include "sim/launch.hh"

namespace szp {

std::uint64_t huffman_size_into(std::span<const quant_t> symbols, const HuffmanCodebook& book,
                                std::uint32_t chunk_size, std::uint32_t gap_stride,
                                HuffmanEncoded& enc, std::vector<std::uint64_t>& chunk_bytes) {
  if (chunk_size == 0) throw std::invalid_argument("huffman_encode: chunk_size must be > 0");
  if (gap_stride != 0 && chunk_size % gap_stride != 0) {
    throw std::invalid_argument("huffman_encode: gap_stride must divide chunk_size");
  }
  enc.cost = {};
  enc.num_symbols = symbols.size();
  enc.chunk_size = chunk_size;
  enc.gap_stride = gap_stride;

  const std::size_t n = symbols.size();
  const std::size_t nchunks = n == 0 ? 0 : sim::div_ceil(n, chunk_size);
  enc.chunk_offsets.assign(nchunks + 1, 0);
  const std::size_t subblocks_per_chunk = gap_stride > 0 ? chunk_size / gap_stride : 0;
  enc.gaps.assign(gap_stride > 0 ? nchunks * subblocks_per_chunk : 0, 0);
  if (n == 0) return 0;

  // Per-chunk encoded byte size (code lengths only; parallel).
  // Exceptions must not escape the parallel region, so uncodable symbols
  // are flagged and reported afterwards.
  // The bad_symbol flag is an intentionally shared atomic, so it stays
  // outside the checker's buffer registry (see DESIGN.md).
  chunk_bytes.assign(nchunks, 0);
  std::atomic<bool> bad_symbol{false};
  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  const auto csz = static_cast<std::int64_t>(chunk_size);
  chk::launch("huffman_encode/chunk_sizes", nchunks,
              chk::bufs(chk::in(symbols, "symbols"),
                        chk::out(std::span<std::uint64_t>(chunk_bytes), "chunk_bytes")),
              ctr::contract(ctr::reads("symbols", ctr::b() * csz, csz).clamp(),
                            ctr::writes("chunk_bytes", ctr::b(), 1)),
              [&, n, chunk_size, gap_stride](std::size_t c, const auto& vsym,
                                             const auto& vbytes) {
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(lo + chunk_size, n);
    // Lane model (word-mode checking): each gap-stride sub-block of the
    // chunk is a cooperating thread summing its own symbols' code lengths
    // into a register; after the reduction barrier, thread 0 stores the
    // chunk's byte count.  Without a gap array the whole chunk is one lane.
    const std::size_t lane_stride = gap_stride > 0 ? gap_stride : chunk_size;
    std::uint64_t bits = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if ((i - lo) % lane_stride == 0) {
        chk::this_thread(static_cast<std::uint32_t>((i - lo) / lane_stride));
      }
      const unsigned len = book.length(vsym[i]);
      if (len == 0) {
        bad_symbol.store(true, std::memory_order_relaxed);
        return;
      }
      bits += len;
    }
    chk::barrier();
    chk::this_thread(0);
    vbytes[c] = (bits + 7) / 8;
  });
  if (bad_symbol.load()) {
    throw std::invalid_argument("huffman_encode: input contains a symbol with no code");
  }

  // Deflate step: exclusive scan of chunk sizes gives each chunk's offset.
  const std::uint64_t total = sim::device_exclusive_scan(
      std::span<const std::uint64_t>(chunk_bytes),
      std::span<std::uint64_t>(enc.chunk_offsets.data(), nchunks));
  enc.chunk_offsets[nchunks] = total;
  // Modeled cost (paper §V-C.1): the chunk-size pass reads every code and
  // stores one size per chunk; the offset scan reads the sizes twice and
  // stores the offsets, with one carry per scan tile stored and read back.
  const std::size_t tiles = sim::div_ceil(nchunks, sim::kScanTile);
  enc.cost.bytes_read = n * sizeof(quant_t) + (2 * nchunks + tiles) * sizeof(std::uint64_t);
  enc.cost.bytes_written = (2 * nchunks + tiles) * sizeof(std::uint64_t);
  enc.cost.launches = 3;
  return total;
}

namespace {

/// Longest code the deflate's word loop stores: the accumulator holds up to
/// 7 pending bits plus one code, and a 64-bit store keeps 63 of them.
constexpr unsigned kWordCodeBits = 56;

}  // namespace

void huffman_deflate_into(std::span<const quant_t> symbols, const HuffmanCodebook& book,
                          HuffmanEncVariant variant, HuffmanEncoded& enc,
                          std::span<std::uint8_t> payload) {
  const std::size_t n = symbols.size();
  if (n == 0) return;
  const std::uint32_t chunk_size = enc.chunk_size;
  const std::uint32_t gap_stride = enc.gap_stride;
  const std::size_t nchunks = enc.chunk_offsets.size() - 1;
  const std::size_t subblocks_per_chunk = gap_stride > 0 ? chunk_size / gap_stride : 0;
  const std::uint64_t total = enc.chunk_offsets[nchunks];
  if (payload.size() != total) {
    throw std::logic_error("huffman_deflate_into: the payload span does not match the sizing");
  }

  // Each chunk writes its own byte range (race-free, parallel), recording
  // sub-block bit offsets when a gap array was requested.  The payload
  // slice each chunk writes comes out of the offset scan — a data-dependent
  // footprint the affine prover cannot discharge, so the deflate kernel
  // honestly stays on dynamic (word-shadow) checking.
  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  const auto csz = static_cast<std::int64_t>(chunk_size);
  ctr::Contract deflate_contract;
  deflate_contract.clauses.push_back(ctr::reads("symbols", ctr::b() * csz, csz).clamp());
  deflate_contract.clauses.push_back(ctr::reads("offsets", ctr::b(), 2));
  // The scan total is the exact payload volume — declare it as the dynamic
  // clause's upper bound so the traffic analyzer (and the checked cross-
  // validation of observed bytes) has a real ceiling instead of the whole
  // buffer.
  deflate_contract.clauses.push_back(
      ctr::writes_dyn("payload", static_cast<std::int64_t>(total)));
  if (gap_stride > 0) {
    const auto spc = static_cast<std::int64_t>(subblocks_per_chunk);
    deflate_contract.clauses.push_back(ctr::writes("gaps", ctr::b() * spc, spc));
  }
  const bool word_stores = book.max_length() <= kWordCodeBits;
  chk::launch("huffman_encode/deflate", nchunks,
              chk::bufs(chk::in(symbols, "symbols"),
                        chk::in(std::span<const std::uint64_t>(enc.chunk_offsets), "offsets"),
                        chk::out(payload, "payload"),
                        chk::out(std::span<std::uint32_t>(enc.gaps), "gaps")),
              deflate_contract,
              [&, n, chunk_size, gap_stride, subblocks_per_chunk, word_stores](
                  std::size_t c, const auto& vsym, const auto& voffsets, const auto& vpayload,
                  const auto& vgaps) {
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(lo + chunk_size, n);
    // Write straight into this chunk's scan-assigned payload slice — no
    // per-chunk heap buffer, no copy; neighbors' slices stay disjoint.
    const auto off = static_cast<std::size_t>(voffsets[c]);
    const auto len = static_cast<std::size_t>(voffsets[c + 1]) - off;
    vpayload.note_write(off, len);
    std::uint8_t* const dst = vpayload.data() + off;
    // Sub-block g of the chunk starts at symbol lo + g * gap_stride; its gap
    // entry is the bit count written before it.
    std::size_t next_gap = gap_stride > 0 ? lo : hi;
    std::size_t gap = c * subblocks_per_chunk;

    // Word loop, with the writer's state in registers: append the code to
    // the accumulator, store the pending bits as one big-endian word at the
    // byte position, then advance past the whole bytes.  The store's bytes
    // past the last whole one hold the partial byte's bits and zeros, which
    // the next store overwrites; it runs only while all eight bytes lie in
    // the chunk's slice, so no store reaches a neighbor's.
    std::size_t i = lo;
    std::size_t pos = 0;
    std::uint64_t acc = 0;
    unsigned fill = 0;
    if (word_stores) {
      for (; i < hi && pos + 8 <= len; ++i) {
        if (i == next_gap) {
          vgaps[gap++] = static_cast<std::uint32_t>(pos * 8 + fill);
          next_gap += gap_stride;
        }
        const quant_t s = vsym[i];
        const unsigned code_len = book.length(s);
        acc = (acc << code_len) | book.code(s);
        fill += code_len;
        store_be64(dst + pos, acc << (64 - fill));
        pos += fill >> 3;
        fill &= 7;
      }
    }
    // The chunk's tail (and a book with longer codes) goes through the
    // bounds-checked writer, resumed from the same state.
    BitWriter bw(std::span<std::uint8_t>(dst, len), pos, acc, fill);
    for (; i < hi; ++i) {
      if (i == next_gap) {
        vgaps[gap++] = static_cast<std::uint32_t>(bw.bit_count());
        next_gap += gap_stride;
      }
      bw.put(book.code(vsym[i]), book.length(vsym[i]));
    }
    bw.flush();
  });

  // Cost model (paper §V-C.1): the deflate reads every code, its chunk's
  // two offsets and the codebook, and stores the payload and the gap array;
  // the baseline variant additionally stores a full word per thread before
  // compaction.  The host's word stores do not change the model: the
  // optimized encoder stores when a unit fills.
  enc.cost.bytes_read +=
      n * sizeof(quant_t) + 2 * nchunks * sizeof(std::uint64_t) + book.alphabet_size() * 9;
  enc.cost.bytes_written += total + enc.gaps.size() * sizeof(std::uint32_t);
  enc.cost.launches += 1;
  if (variant == HuffmanEncVariant::kBaseline && n * sizeof(std::uint32_t) > total) {
    enc.cost.bytes_written += n * sizeof(std::uint32_t) - total;
  }
  enc.cost.flops = n * 8;
  enc.cost.parallel_items = n;
  enc.cost.pattern = sim::AccessPattern::kScattered;
  enc.cost.custom_factor = 0.09;  // calibrated to Table VI Huffman rows
}

void huffman_encode_into(std::span<const quant_t> symbols, const HuffmanCodebook& book,
                         std::uint32_t chunk_size, HuffmanEncVariant variant,
                         std::uint32_t gap_stride, HuffmanEncoded& enc,
                         std::vector<std::uint64_t>& chunk_bytes) {
  const std::uint64_t total =
      huffman_size_into(symbols, book, chunk_size, gap_stride, enc, chunk_bytes);
  enc.payload.resize(total);
  huffman_deflate_into(symbols, book, variant, enc, enc.payload);
}

HuffmanEncoded huffman_encode(std::span<const quant_t> symbols, const HuffmanCodebook& book,
                              std::uint32_t chunk_size, HuffmanEncVariant variant,
                              std::uint32_t gap_stride) {
  HuffmanEncoded enc;
  std::vector<std::uint64_t> chunk_bytes;
  huffman_encode_into(symbols, book, chunk_size, variant, gap_stride, enc, chunk_bytes);
  return enc;
}

namespace {

/// Validate every metadata field of an (untrusted) encoding against its
/// payload before any output is sized or written.
void check_decode_metadata(const HuffmanEncoded& enc, std::span<const std::uint8_t> payload) {
  const std::size_t n = enc.num_symbols;
  if (n == 0) return;
  // Each encoded symbol costs at least one payload bit, so num_symbols is
  // bounded by the payload size — this also keeps the div_ceil below from
  // wrapping on a spliced count.
  if (n > payload.size() * 8) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "huffman stream",
                      "symbol count " + std::to_string(n) + " exceeds the " +
                          std::to_string(payload.size() * 8) + " payload bits");
  }
  if (enc.chunk_size == 0 ||
      enc.chunk_offsets.size() != sim::div_ceil(n, enc.chunk_size) + 1) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "huffman stream",
                      "inconsistent chunk metadata");
  }
  if (enc.gap_stride > 0 &&
      (enc.gap_stride > enc.chunk_size || enc.chunk_size % enc.gap_stride != 0)) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "huffman stream",
                      "gap stride does not divide the chunk size");
  }
  // Validate offsets before the parallel region so no chunk can read out of
  // the payload's bounds.
  for (std::size_t c = 1; c < enc.chunk_offsets.size(); ++c) {
    if (enc.chunk_offsets[c] < enc.chunk_offsets[c - 1] ||
        enc.chunk_offsets[c] > payload.size()) {
      throw DecodeError(DecodeErrorKind::kCorruptStream, "huffman stream",
                        "corrupt chunk offsets");
    }
  }
  const std::size_t nchunks = enc.chunk_offsets.size() - 1;
  if (enc.gap_stride > 0 && enc.gaps.size() != nchunks * (enc.chunk_size / enc.gap_stride)) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "huffman stream",
                      "gap array size mismatch");
  }
}

/// Decode units per inflate launch block: the block advances one reader per
/// unit in turn, so the table walks of independent units overlap instead of
/// each waiting on its previous symbol's length (Rivera et al.'s latency
/// hiding, as kRansLanes does for rANS).  A compile-time constant, not an
/// option: it moves host time and the coalescing estimate, never a byte or
/// a verdict.
constexpr std::size_t kHuffmanGroup = 4;

/// Symbols a reader at bit `pos` of a `size`-byte slice can decode, at most
/// `max_len` bits each, before an 8-byte load at its position would leave
/// the slice.
std::size_t safe_steps(std::size_t size, std::uint64_t pos, unsigned max_len) {
  if (size < 8 || pos > (size - 8) * std::uint64_t{8}) return 0;
  return static_cast<std::size_t>(((size - 8) * std::uint64_t{8} - pos) / max_len + 1);
}

/// The inflate launch over metadata check_decode_metadata() accepted;
/// `symbols` holds exactly enc.num_symbols entries.
sim::KernelCost decode_chunks(const HuffmanEncoded& enc, std::span<const std::uint8_t> payload,
                              const HuffmanCodebook& book, std::span<quant_t> symbols) {
  sim::KernelCost cost;
  const std::size_t n = enc.num_symbols;
  if (n == 0) return cost;
  const std::size_t nchunks = enc.chunk_offsets.size() - 1;
  const std::size_t subblocks_per_chunk =
      enc.gap_stride > 0 ? enc.chunk_size / enc.gap_stride : 1;
  const std::size_t units = nchunks * subblocks_per_chunk;
  const std::size_t stride = enc.gap_stride > 0 ? enc.gap_stride : enc.chunk_size;
  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  // Decode unit `u` covers symbols [u*stride, u*stride + stride) ∩ [0, n):
  // with chunk_size = subblocks_per_chunk * stride, the chunk/sub-block
  // decomposition collapses to one affine window per unit, and block b's
  // kHuffmanGroup consecutive units to one window per block.  The payload
  // range each unit reads comes from the (data-dependent) offset table, so
  // that read is declared dynamic; reads never impede the disjointness
  // proof for the symbol writes.
  const auto group_syms = static_cast<std::int64_t>(kHuffmanGroup * stride);
  const auto group64 = static_cast<std::int64_t>(kHuffmanGroup);
  ctr::Contract decode_contract;
  decode_contract.clauses.push_back(
      ctr::writes("symbols", ctr::b() * group_syms, group_syms).clamp());
  // Worst-case read volumes across the launch: every unit of a chunk
  // re-reads that chunk's whole payload slice (sub-block units share the
  // slice), and each unit loads its chunk's two bounding offsets.
  decode_contract.clauses.push_back(ctr::reads_dyn(
      "payload", static_cast<std::int64_t>(payload.size() * subblocks_per_chunk)));
  decode_contract.clauses.push_back(ctr::reads_dyn(
      "offsets", static_cast<std::int64_t>(2 * nchunks * subblocks_per_chunk)));
  if (enc.gap_stride > 0) {
    decode_contract.clauses.push_back(ctr::reads("gaps", ctr::b() * group64, group64).clamp());
  }
  chk::launch("huffman_decode", sim::div_ceil(units, kHuffmanGroup),
              chk::bufs(chk::in(payload, "payload"),
                        chk::in(std::span<const std::uint64_t>(enc.chunk_offsets), "offsets"),
                        chk::in(std::span<const std::uint32_t>(enc.gaps), "gaps"),
                        chk::out(symbols, "symbols")),
              decode_contract,
              [&, n, units, subblocks_per_chunk, stride](std::size_t block, const auto& vpayload,
                                                         const auto& voffsets, const auto& vgaps,
                                                         const auto& vsym) {
    // This block's units that hold symbols (units start in symbol order,
    // so only a group's tail can lie past n), each with its chunk's slice,
    // its reader position and its next symbol.
    struct Unit {
      const std::uint8_t* bytes;
      std::size_t size;
      std::uint64_t pos;
      std::size_t next, hi;
    };
    std::array<Unit, kHuffmanGroup> group{};
    std::size_t count = 0;
    for (std::size_t u = block * kHuffmanGroup;
         u < std::min(units, (block + 1) * kHuffmanGroup) && u * stride < n; ++u) {
      const std::size_t c = u / subblocks_per_chunk;
      const auto off = static_cast<std::size_t>(voffsets[c]);
      const auto end = static_cast<std::size_t>(voffsets[c + 1]);
      vpayload.note_read(off, end - off);
      group[count++] = {vpayload.data() + off, end - off, enc.gap_stride > 0 ? vgaps[u] : 0,
                        u * stride, std::min(u * stride + stride, n)};
    }

    // Interleaved phase, for a group of full-length units whose codes fit
    // one window: step j decodes symbol j of every unit in turn.  Each step
    // runs unchecked while every unit's next load stays inside its slice —
    // a code takes at most max_len bits, so safe_steps() bounds how many
    // steps may run before the bound is recomputed.
    const unsigned max_len = book.max_length();
    if (count == kHuffmanGroup && group[count - 1].hi - group[count - 1].next == stride &&
        max_len >= 1 && max_len <= HuffmanCodebook::kWindowBits) {
      // Reader positions in a local array, which the unrolled steps keep in
      // registers.
      std::array<std::uint64_t, kHuffmanGroup> pos{};
      for (std::size_t k = 0; k < kHuffmanGroup; ++k) pos[k] = group[k].pos;
      std::size_t j = 0;
      std::size_t faulted = kHuffmanGroup;  // the unit whose window no code owns
      while (faulted == kHuffmanGroup) {
        std::size_t steps = stride - j;
        for (std::size_t k = 0; k < kHuffmanGroup; ++k) {
          steps = std::min(steps, safe_steps(group[k].size, pos[k], max_len));
        }
        if (steps == 0) break;
        for (const std::size_t stop = j + steps; j < stop && faulted == kHuffmanGroup; ++j) {
#pragma GCC unroll 4
          for (std::size_t k = 0; k < kHuffmanGroup; ++k) {
            const std::uint32_t e =
                book.decode_window(load_be64(group[k].bytes + (pos[k] >> 3)) << (pos[k] & 7));
            if (e == 0) {
              faulted = k;
              break;
            }
            vsym[group[k].next + j] = static_cast<quant_t>(e >> 8);
            pos[k] += e & 0xffu;
          }
        }
      }
      // On a fault, j has moved past the faulting step, which only the
      // units before the faulting one completed.
      for (std::size_t k = 0; k < kHuffmanGroup; ++k) {
        group[k].pos = pos[k];
        group[k].next += k < faulted ? j : j - 1;
      }
    }

    // Checked tail, one unit at a time in unit order: each unit's last
    // symbols, groups that skip the interleave, and a unit whose window no
    // code owns.  A corrupt bitstream (invalid code, or a spliced gap
    // offset pointing past the chunk) throws DecodeError here, from the
    // lowest faulting unit of the block, as a grid of one unit per block
    // reports it; the exception-safe launch drains the remaining blocks and
    // rethrows the lowest block's.
    for (std::size_t k = 0; k < count; ++k) {
      const Unit& g = group[k];
      BitReader br(std::span<const std::uint8_t>(g.bytes, g.size), g.pos);
      for (std::size_t i = g.next; i < g.hi; ++i) {
        vsym[i] = static_cast<quant_t>(book.decode_one(br));
      }
    }
  });

  // The modeled kernel is cuSZ's canonical decode: each decode unit reads
  // its chunk's whole payload slice and two bounding offsets (sub-block
  // units share the slice), its gap entry and the codebook, and stores its
  // symbols.  One dependent bit-serial table walk per unit makes it
  // latency/compute-bound, not bandwidth-bound — which is why the paper
  // sees it stagnate from V100 to A100 (§V-C.2).  The host's interleaved
  // units and table-driven lookups do not change the model.  The per-symbol
  // weight is calibrated to Table VII's ~40-50 GB/s V100 decode rows for
  // the chunked decoder; gap-array decoding keeps warps converged over short
  // chains, which reference [15] reports as a multi-x decode gain (weight
  // calibrated accordingly).
  cost.bytes_read = payload.size() * subblocks_per_chunk + units * 2 * sizeof(std::uint64_t) +
                    (enc.gap_stride > 0 ? units * sizeof(std::uint32_t) : 0) +
                    book.alphabet_size() * 9;
  cost.bytes_written = n * sizeof(quant_t);
  cost.flops = n * (130 + 320 * std::min<std::size_t>(stride, 4096) / 4096);
  cost.parallel_items = n;
  cost.pattern = sim::AccessPattern::kCoalescedStreaming;
  return cost;
}

}  // namespace

sim::KernelCost huffman_decode_into(const HuffmanEncoded& enc,
                                    std::span<const std::uint8_t> payload,
                                    const HuffmanCodebook& book, std::size_t n,
                                    sim::device_vector<quant_t>& out) {
  check_decode_metadata(enc, payload);
  if (enc.num_symbols != n) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "quant-codes",
                      "huffman stream holds " + std::to_string(enc.num_symbols) +
                          " symbols, the grid holds " + std::to_string(n));
  }
  out.resize(n);
  return decode_chunks(enc, payload, book, out);
}

HuffmanDecoded huffman_decode(const HuffmanEncoded& enc, const HuffmanCodebook& book) {
  check_decode_metadata(enc, enc.payload);  // before the output allocation
  HuffmanDecoded dec;
  dec.symbols.resize(enc.num_symbols);
  dec.cost = decode_chunks(enc, enc.payload, book, dec.symbols);
  return dec;
}

}  // namespace szp
