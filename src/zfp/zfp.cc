#include "zfp/zfp.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/error.hh"
#include "core/serialize.hh"
#include "sim/check.hh"
#include "sim/launch.hh"

namespace szp::zfp {

namespace {

constexpr std::uint32_t kMagic = 0x50465A53;  // "SZFP"
constexpr int kFracBits = 25;                 // fixed-point precision per block
constexpr int kPlanes = 30;                   // encoded bit planes (MSB first)
constexpr std::int16_t kEmptyBlock = -32768;  // emax sentinel for all-zero blocks

/// ZFP's forward lifting transform on a stride-s 4-vector (the
/// non-orthogonal integer approximation of the DCT).
void fwd_lift(std::int32_t* p, std::size_t s) {
  std::int32_t x = p[0], y = p[s], z = p[2 * s], w = p[3 * s];
  x += w; x >>= 1; w -= x;
  z += y; z >>= 1; y -= z;
  x += z; x >>= 1; z -= x;
  w += y; w >>= 1; y -= w;
  w += y >> 1; y -= w >> 1;
  p[0] = x; p[s] = y; p[2 * s] = z; p[3 * s] = w;
}

/// Exact inverse of fwd_lift.  The adds, subtracts and doublings wrap in
/// uint32_t: corrupt coefficients can carry them past the int32 range, and
/// the unsigned ops give the same bits wherever the signed ones do not
/// overflow.
void inv_lift(std::int32_t* p, std::size_t s) {
  const auto add = [](std::int32_t a, std::int32_t b) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) + static_cast<std::uint32_t>(b));
  };
  const auto sub = [](std::int32_t a, std::int32_t b) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) - static_cast<std::uint32_t>(b));
  };
  std::int32_t x = p[0], y = p[s], z = p[2 * s], w = p[3 * s];
  y = add(y, w >> 1); w = sub(w, y >> 1);
  y = add(y, w); w = add(w, w); w = sub(w, y);
  z = add(z, x); x = add(x, x); x = sub(x, z);
  y = add(y, z); z = add(z, z); z = sub(z, y);
  w = add(w, x); x = add(x, x); x = sub(x, w);
  p[0] = x; p[s] = y; p[2 * s] = z; p[3 * s] = w;
}

/// Two's complement <-> negabinary (sign folded into alternating weights,
/// so magnitude ordering survives bit-plane truncation).
std::uint32_t to_negabinary(std::int32_t i) {
  return (static_cast<std::uint32_t>(i) + 0xaaaaaaaau) ^ 0xaaaaaaaau;
}
std::int32_t from_negabinary(std::uint32_t u) {
  return static_cast<std::int32_t>((u ^ 0xaaaaaaaau) - 0xaaaaaaaau);
}

/// Sequency order: coefficients sorted by total index sum (low-frequency
/// first), ties broken by linear index — the same spirit as ZFP's perm
/// tables.
template <int Rank>
std::array<std::uint8_t, 64> make_order() {
  const int count = Rank == 1 ? 4 : Rank == 2 ? 16 : 64;
  std::array<std::uint8_t, 64> order{};
  std::array<std::pair<int, int>, 64> keyed{};  // (sum, index)
  for (int i = 0; i < count; ++i) {
    const int x = i & 3, y = (i >> 2) & 3, z = (i >> 4) & 3;
    keyed[static_cast<std::size_t>(i)] = {x + y + z, i};
  }
  std::sort(keyed.begin(), keyed.begin() + count);
  for (int i = 0; i < count; ++i) {
    order[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(keyed[static_cast<std::size_t>(i)].second);
  }
  return order;
}

const std::array<std::uint8_t, 64> kOrder1 = make_order<1>();
const std::array<std::uint8_t, 64> kOrder2 = make_order<2>();
const std::array<std::uint8_t, 64> kOrder3 = make_order<3>();

const std::uint8_t* order_for(int rank) {
  return rank == 1 ? kOrder1.data() : rank == 2 ? kOrder2.data() : kOrder3.data();
}

struct BlockGrid {
  std::size_t bx, by, bz;       // blocks per axis
  std::size_t block_elems;      // 4^rank
  std::size_t count() const { return bx * by * bz; }
};

BlockGrid make_grid(const Extents& ext) {
  BlockGrid g{};
  g.bx = sim::div_ceil(ext.nx, 4);
  g.by = ext.rank >= 2 ? sim::div_ceil(ext.ny, 4) : 1;
  g.bz = ext.rank >= 3 ? sim::div_ceil(ext.nz, 4) : 1;
  g.block_elems = std::size_t{1} << (2 * ext.rank);
  return g;
}

/// Fixed bit budget per block, including the 16-bit exponent header.
/// Rounded up to whole bytes so concurrent blocks never share a byte
/// (the encode loop is block-parallel).
std::size_t block_bits(const ZfpConfig& cfg, std::size_t block_elems) {
  const auto bits = static_cast<std::size_t>(
      std::llround(cfg.rate_bits_per_value * static_cast<double>(block_elems)));
  return ((std::max<std::size_t>(bits, 17) + 7) / 8) * 8;
}

/// Gather a (possibly partial) block with edge replication, as ZFP pads.
/// Templated over the (raw or tracking) data view from the checked launch.
/// Lane model (word-mode checking): one virtual thread per block row, the
/// way cuZFP assigns gather threads.  Edge-replicated rows collide only on
/// reads, which the checker treats as benign sharing.
template <typename View>
void gather_block(const View& data, const Extents& ext, std::size_t gx,
                  std::size_t gy, std::size_t gz, float* block) {
  const int rank = ext.rank;
  const std::size_t ny = rank >= 2 ? 4 : 1;
  const std::size_t nz = rank >= 3 ? 4 : 1;
  for (std::size_t lz = 0; lz < nz; ++lz) {
    const std::size_t z = std::min(gz * 4 + lz, ext.nz - 1);
    for (std::size_t ly = 0; ly < ny; ++ly) {
      sim::checked::this_thread(static_cast<std::uint32_t>(lz * ny + ly));
      const std::size_t y = std::min(gy * 4 + ly, ext.ny - 1);
      for (std::size_t lx = 0; lx < 4; ++lx) {
        const std::size_t x = std::min(gx * 4 + lx, ext.nx - 1);
        block[(lz * ny + ly) * 4 + lx] = data[ext.index(z, y, x)];
      }
    }
  }
}

template <typename View>
void scatter_block(const View& data, const Extents& ext, std::size_t gx, std::size_t gy,
                   std::size_t gz, const float* block) {
  const int rank = ext.rank;
  const std::size_t ny = rank >= 2 ? 4 : 1;
  const std::size_t nz = rank >= 3 ? 4 : 1;
  for (std::size_t lz = 0; lz < nz; ++lz) {
    const std::size_t z = gz * 4 + lz;
    if (z >= ext.nz) break;
    for (std::size_t ly = 0; ly < ny; ++ly) {
      // One virtual thread per row; rows land on disjoint output words.
      sim::checked::this_thread(static_cast<std::uint32_t>(lz * ny + ly));
      const std::size_t y = gy * 4 + ly;
      if (y >= ext.ny) break;
      for (std::size_t lx = 0; lx < 4; ++lx) {
        const std::size_t x = gx * 4 + lx;
        if (x >= ext.nx) break;
        data[ext.index(z, y, x)] = block[(lz * ny + ly) * 4 + lx];
      }
    }
  }
}

// Lane model for both transforms: each lift pass assigns one virtual
// thread per independent 4-vector (lane = vector index within the pass),
// with a barrier between passes — the passes genuinely depend on each
// other, so word mode must see them in distinct epochs when the transform
// is ever applied to a registered buffer.
void transform_forward(std::int32_t* v, int rank) {
  namespace chk = sim::checked;
  if (rank == 1) {
    chk::this_thread(0);
    fwd_lift(v, 1);
    chk::barrier();
    return;
  }
  if (rank == 2) {
    for (std::size_t y = 0; y < 4; ++y) {                          // rows
      chk::this_thread(static_cast<std::uint32_t>(y));
      fwd_lift(v + 4 * y, 1);
    }
    chk::barrier();
    for (std::size_t x = 0; x < 4; ++x) {                          // columns
      chk::this_thread(static_cast<std::uint32_t>(x));
      fwd_lift(v + x, 4);
    }
    chk::barrier();
    return;
  }
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y) {
      chk::this_thread(static_cast<std::uint32_t>(z * 4 + y));
      fwd_lift(v + 16 * z + 4 * y, 1);
    }
  chk::barrier();
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t x = 0; x < 4; ++x) {
      chk::this_thread(static_cast<std::uint32_t>(z * 4 + x));
      fwd_lift(v + 16 * z + x, 4);
    }
  chk::barrier();
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 4; ++x) {
      chk::this_thread(static_cast<std::uint32_t>(y * 4 + x));
      fwd_lift(v + 4 * y + x, 16);
    }
  chk::barrier();
}

void transform_inverse(std::int32_t* v, int rank) {
  namespace chk = sim::checked;
  if (rank == 1) {
    chk::this_thread(0);
    inv_lift(v, 1);
    chk::barrier();
    return;
  }
  if (rank == 2) {
    for (std::size_t x = 0; x < 4; ++x) {
      chk::this_thread(static_cast<std::uint32_t>(x));
      inv_lift(v + x, 4);
    }
    chk::barrier();
    for (std::size_t y = 0; y < 4; ++y) {
      chk::this_thread(static_cast<std::uint32_t>(y));
      inv_lift(v + 4 * y, 1);
    }
    chk::barrier();
    return;
  }
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 4; ++x) {
      chk::this_thread(static_cast<std::uint32_t>(y * 4 + x));
      inv_lift(v + 4 * y + x, 16);
    }
  chk::barrier();
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t x = 0; x < 4; ++x) {
      chk::this_thread(static_cast<std::uint32_t>(z * 4 + x));
      inv_lift(v + 16 * z + x, 4);
    }
  chk::barrier();
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y) {
      chk::this_thread(static_cast<std::uint32_t>(z * 4 + y));
      inv_lift(v + 16 * z + 4 * y, 1);
    }
  chk::barrier();
}

/// Fixed-size per-block bit cursor over the archive payload.
class BlockBits {
 public:
  BlockBits(std::uint8_t* base, std::size_t bit_offset)
      : base_(base), pos_(bit_offset) {}

  void put(unsigned bit) {
    base_[pos_ >> 3] = static_cast<std::uint8_t>(
        base_[pos_ >> 3] | ((bit & 1u) << (7 - (pos_ & 7))));
    ++pos_;
  }
  void put_bits(std::uint32_t value, unsigned n) {
    for (unsigned i = n; i-- > 0;) put((value >> i) & 1u);
  }

 private:
  std::uint8_t* base_;
  std::size_t pos_;
};

class BlockBitsReader {
 public:
  BlockBitsReader(const std::uint8_t* base, std::size_t bit_offset)
      : base_(base), pos_(bit_offset) {}

  [[nodiscard]] unsigned get() {
    const unsigned bit = (base_[pos_ >> 3] >> (7 - (pos_ & 7))) & 1u;
    ++pos_;
    return bit;
  }
  [[nodiscard]] std::uint32_t get_bits(unsigned n) {
    std::uint32_t v = 0;
    for (unsigned i = 0; i < n; ++i) v = (v << 1) | get();
    return v;
  }

 private:
  const std::uint8_t* base_;
  std::size_t pos_;
};

}  // namespace

ZfpCompressed zfp_compress(std::span<const float> data, const Extents& ext,
                           const ZfpConfig& cfg) {
  if (data.empty() || data.size() != ext.count()) {
    throw std::invalid_argument("zfp_compress: data must be non-empty and match extents");
  }
  if (cfg.rate_bits_per_value < 1.0 || cfg.rate_bits_per_value > 32.0) {
    throw std::invalid_argument("zfp_compress: rate must be in [1, 32] bits/value");
  }
  const BlockGrid grid = make_grid(ext);
  const std::size_t bits_per_block = block_bits(cfg, grid.block_elems);
  const std::size_t payload_bytes = sim::div_ceil(grid.count() * bits_per_block, 8);

  ByteWriter w;
  w.put(kMagic);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(ext.rank));
  w.put<std::uint64_t>(ext.nx);
  w.put<std::uint64_t>(ext.ny);
  w.put<std::uint64_t>(ext.nz);
  w.put<double>(cfg.rate_bits_per_value);
  std::vector<std::uint8_t> payload(payload_bytes, 0);

  const std::uint8_t* order = order_for(ext.rank);
  const std::size_t ne = grid.block_elems;

  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  // One 4x4x4 (edge-clamped) tile of the field per block, and one
  // byte-rounded payload slot at the block's linear index — affine in the
  // block coordinates, so both footprints are statically provable.
  const auto bpb8 = static_cast<std::int64_t>(bits_per_block / 8);
  const auto gbx = static_cast<std::int64_t>(grid.bx);
  const auto gby = static_cast<std::int64_t>(grid.by);
  chk::launch_3d("zfp_compress",
                 {static_cast<std::uint32_t>(grid.bx), static_cast<std::uint32_t>(grid.by),
                  static_cast<std::uint32_t>(grid.bz)},
                 chk::bufs(chk::in(data, "data"),
                           chk::out(std::span<std::uint8_t>(payload), "payload")),
                 ctr::contract(
                     ctr::reads_box("data", ctr::bx() * 4, 4, ctr::by() * 4, 4, ctr::bz() * 4, 4,
                                    static_cast<std::int64_t>(ext.nx),
                                    static_cast<std::int64_t>(ext.ny),
                                    static_cast<std::int64_t>(ext.nz)),
                     ctr::writes("payload",
                                 ctr::bx() * bpb8 + ctr::by() * (gbx * bpb8) +
                                     ctr::bz() * (gbx * gby * bpb8),
                                 bpb8)),
                 [&, bits_per_block](std::uint32_t gx, std::uint32_t gy, std::uint32_t gz,
                                     const auto& vdata, const auto& vpayload) {
    const std::size_t b =
        (static_cast<std::size_t>(gz) * grid.by + gy) * grid.bx + gx;

    std::array<float, 64> vals{};
    gather_block(vdata, ext, gx, gy, gz, vals.data());
    chk::barrier();

    // The bitstream emit is inherently serial: thread 0 owns the cursor.
    chk::this_thread(0);
    // bits_per_block is rounded to whole bytes, so each block's reserved
    // byte range is disjoint; claim it before writing through the raw base.
    vpayload.note_write(b * bits_per_block / 8, bits_per_block / 8);
    BlockBits bits(vpayload.data(), b * bits_per_block);

    // Common exponent.
    float vmax = 0.0f;
    for (std::size_t i = 0; i < ne; ++i) vmax = std::max(vmax, std::abs(vals[i]));
    if (vmax == 0.0f) {
      bits.put_bits(static_cast<std::uint16_t>(kEmptyBlock), 16);
      return;
    }
    int emax = 0;
    (void)std::frexp(vmax, &emax);
    bits.put_bits(static_cast<std::uint16_t>(static_cast<std::int16_t>(emax)), 16);

    // Fixed point, transform, sequency order, negabinary.
    const double scale = std::ldexp(1.0, kFracBits - emax);
    std::array<std::int32_t, 64> q{};
    for (std::size_t i = 0; i < ne; ++i) {
      q[i] = static_cast<std::int32_t>(std::lround(static_cast<double>(vals[i]) * scale));
    }
    transform_forward(q.data(), ext.rank);
    chk::this_thread(0);
    std::array<std::uint32_t, 64> nb{};
    for (std::size_t i = 0; i < ne; ++i) nb[i] = to_negabinary(q[order[i]]);

    // Bit planes, MSB first, each prefixed by a zero-plane flag; stop when
    // the budget is spent.
    std::size_t spent = 16;
    for (int plane = kPlanes; plane >= 0 && spent < bits_per_block; --plane) {
      std::uint32_t any = 0;
      for (std::size_t i = 0; i < ne; ++i) any |= (nb[i] >> plane) & 1u;
      bits.put(any);
      ++spent;
      if (any == 0) continue;
      for (std::size_t i = 0; i < ne && spent < bits_per_block; ++i) {
        bits.put((nb[i] >> plane) & 1u);
        ++spent;
      }
    }
  });

  w.put_vector(payload);

  ZfpCompressed out;
  out.bytes = w.take();
  out.ratio = static_cast<double>(data.size_bytes()) / static_cast<double>(out.bytes.size());
  // Every block reads its tile of the field and stores its payload slot.
  out.cost.bytes_read = data.size_bytes();
  out.cost.bytes_written = payload.size();
  out.cost.flops = data.size() * 12;  // lifting + negabinary + plane tests
  out.cost.parallel_items = data.size();
  out.cost.pattern = sim::AccessPattern::kCoalescedStreaming;
  out.cost.custom_factor = 0.60;  // cuZFP runs slightly above cuSZ's kernels
  return out;
}

ZfpDecompressed zfp_decompress(std::span<const std::uint8_t> archive) {
  return decode_guard("zfp archive", [&] {
  ByteReader r(archive);
  r.set_segment("header");
  if (r.get<std::uint32_t>() != kMagic) {
    throw DecodeError(DecodeErrorKind::kBadMagic, "header", "not an SZFP stream");
  }
  Extents ext;
  ext.rank = r.get<std::uint8_t>();
  if (ext.rank < 1 || ext.rank > 3) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "rank " + std::to_string(ext.rank) + " outside [1, 3]");
  }
  ext.nx = r.get<std::uint64_t>();
  ext.ny = r.get<std::uint64_t>();
  ext.nz = r.get<std::uint64_t>();
  if (ext.nx == 0 || ext.ny == 0 || ext.nz == 0 ||
      (ext.rank < 2 && ext.ny != 1) || (ext.rank < 3 && ext.nz != 1)) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "extents inconsistent with the declared rank");
  }
  std::uint64_t count = 0;
  if (__builtin_mul_overflow(ext.nx, ext.ny, &count) ||
      __builtin_mul_overflow(count, ext.nz, &count)) {
    throw DecodeError(DecodeErrorKind::kLengthOverflow, "header",
                      "extents overflow the element count");
  }
  ZfpConfig cfg;
  cfg.rate_bits_per_value = r.get<double>();
  if (!(cfg.rate_bits_per_value >= 1.0 && cfg.rate_bits_per_value <= 32.0)) {
    // The negated comparison also rejects NaN before it reaches llround.
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "rate outside [1, 32] bits/value");
  }
  r.set_segment("payload");
  const auto payload = r.get_vector<std::uint8_t>();

  const BlockGrid grid = make_grid(ext);
  const std::size_t bits_per_block = block_bits(cfg, grid.block_elems);
  // Overflow-safe total-bit budget: a spliced extent must not wrap the
  // multiply and slip past the truncation check below.
  std::uint64_t total_bits = 0;
  if (__builtin_mul_overflow(grid.count(), bits_per_block, &total_bits)) {
    throw DecodeError(DecodeErrorKind::kLengthOverflow, "payload",
                      "block grid overflows the payload bit budget");
  }
  if (payload.size() < sim::div_ceil(total_bits, 8)) {
    throw DecodeError(DecodeErrorKind::kTruncated, "payload",
                      "payload holds " + std::to_string(payload.size()) + " bytes, the " +
                          std::to_string(grid.count()) + "-block grid needs " +
                          std::to_string(sim::div_ceil(total_bits, 8)));
  }

  ZfpDecompressed out;
  out.extents = ext;
  out.data.assign(ext.count(), 0.0f);
  const std::uint8_t* order = order_for(ext.rank);
  const std::size_t ne = grid.block_elems;

  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  const auto bpb8 = static_cast<std::int64_t>(bits_per_block / 8);
  const auto gbx = static_cast<std::int64_t>(grid.bx);
  const auto gby = static_cast<std::int64_t>(grid.by);
  chk::launch_3d("zfp_decompress",
                 {static_cast<std::uint32_t>(grid.bx), static_cast<std::uint32_t>(grid.by),
                  static_cast<std::uint32_t>(grid.bz)},
                 chk::bufs(chk::in(std::span<const std::uint8_t>(payload), "payload"),
                           chk::out(std::span<float>(out.data), "data")),
                 ctr::contract(
                     ctr::reads("payload",
                                ctr::bx() * bpb8 + ctr::by() * (gbx * bpb8) +
                                    ctr::bz() * (gbx * gby * bpb8),
                                bpb8),
                     ctr::writes_box("data", ctr::bx() * 4, 4, ctr::by() * 4, 4, ctr::bz() * 4, 4,
                                     static_cast<std::int64_t>(ext.nx),
                                     static_cast<std::int64_t>(ext.ny),
                                     static_cast<std::int64_t>(ext.nz))),
                 [&, bits_per_block](std::uint32_t gx, std::uint32_t gy, std::uint32_t gz,
                                     const auto& vpayload, const auto& vdata) {
    const std::size_t b =
        (static_cast<std::size_t>(gz) * grid.by + gy) * grid.bx + gx;

    // Serial bitstream read: thread 0 owns the cursor, rows scatter after
    // the barrier.
    chk::this_thread(0);
    vpayload.note_read(b * bits_per_block / 8, bits_per_block / 8);
    BlockBitsReader bits(vpayload.data(), b * bits_per_block);
    const auto emax = static_cast<std::int16_t>(bits.get_bits(16));
    std::array<float, 64> vals{};
    if (emax != kEmptyBlock) {
      std::array<std::uint32_t, 64> nb{};
      std::size_t spent = 16;
      for (int plane = kPlanes; plane >= 0 && spent < bits_per_block; --plane) {
        const unsigned any = bits.get();
        ++spent;
        if (any == 0) continue;
        for (std::size_t i = 0; i < ne && spent < bits_per_block; ++i) {
          nb[i] |= static_cast<std::uint32_t>(bits.get()) << plane;
          ++spent;
        }
      }
      std::array<std::int32_t, 64> q{};
      for (std::size_t i = 0; i < ne; ++i) q[order[i]] = from_negabinary(nb[i]);
      transform_inverse(q.data(), ext.rank);
      chk::this_thread(0);
      const double scale = std::ldexp(1.0, emax - kFracBits);
      for (std::size_t i = 0; i < ne; ++i) {
        vals[i] = static_cast<float>(static_cast<double>(q[i]) * scale);
      }
    }
    chk::barrier();
    scatter_block(vdata, ext, gx, gy, gz, vals.data());
  });

  // Every block reads its payload slot and stores its tile of the field.
  out.cost.bytes_read = total_bits / 8;
  out.cost.bytes_written = out.data.size() * sizeof(float);
  out.cost.flops = out.data.size() * 12;
  out.cost.parallel_items = out.data.size();
  out.cost.pattern = sim::AccessPattern::kCoalescedStreaming;
  out.cost.custom_factor = 0.60;
  return out;
  });
}

}  // namespace szp::zfp
