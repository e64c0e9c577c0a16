#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "core/predictor/lorenzo.hh"
#include "core/predictor/lorenzo_grid.hh"
#include "sim/check.hh"

namespace szp {

namespace {

using lorenzo_detail::Box;

// Bandwidth derating factors calibrated against the construction
// throughputs published for cuSZ (Table VI "cuSZ" column) and cuSZ+
// (Table VI "ours"), per rank.  See DESIGN.md §2 (roofline substitution).
constexpr std::array<double, 4> kBaselineFactor{0.0, 0.58, 0.70, 0.56};
constexpr std::array<double, 4> kOptimizedFactor{0.0, 0.85, 0.76, 0.82};

/// |d°| bound the Compressor enforces (validate_exactness).  It keeps the
/// 3-D residual, a signed sum of eight prequant values, inside int32.
constexpr double kPrequantLimit = 0x1p27;

/// d° = round(v) half away from zero: std::llround for every |v| < 2^27,
/// saturating at ±2^27 beyond (NaN, which callers reject, gives ±2^27), so
/// the int32 conversion is defined for any input.  Adding and removing
/// 1.5·2^52 rounds |v| to the nearest integer, ties to even, exactly for
/// |v| < 2^51; |v| minus that integer is exact, and a remainder of one half
/// (a tie rounded down) steps up.  Branch-free, with the clamp last and one
/// conversion, so the row loop vectorizes: a truncating conversion ahead of
/// the tie test, or a clamp ahead of the rounding, leaves a conversion
/// conditional after jump threading, which GCC's default -ftrapping-math
/// will not if-convert.
inline qdiff_t prequant(double v) {
  constexpr double kShift = 0x1.8p52;
  const double mag = std::fabs(v);
  const double even = (mag + kShift) - kShift;
  double r = even + (mag - even >= 0.5 ? 1.0 : 0.0);
  r = r < kPrequantLimit ? r : kPrequantLimit;
  return static_cast<qdiff_t>(std::copysign(r, v));
}

/// Rank-R tile of prequant values for one block: the run width plus one
/// leading zero word per row, a leading zero row per plane (2-D, 3-D) and a
/// leading zero plane (3-D).  Those zeros are the chunk's prediction
/// boundary along y and z; along x the boundary is a mask.
template <int R>
struct Tile {
  static constexpr ChunkShape kShape = ChunkShape::for_rank(R);
  static constexpr std::size_t kWidth = kLorenzoRun * kShape.cx;
  static constexpr std::size_t kRow = kWidth + 1;
  static constexpr std::size_t kRows = R >= 2 ? kShape.cy + 1 : 1;
  static constexpr std::size_t kPlane = kRows * kRow;
  static constexpr std::size_t kWords = (R == 3 ? kShape.cz + 1 : 1) * kPlane;

  /// Offset of the leading zero word of block row (lz, ly).
  static constexpr std::size_t row(std::size_t lz, std::size_t ly) {
    return (lz + (R == 3 ? 1 : 0)) * kPlane + (ly + (R >= 2 ? 1 : 0)) * kRow;
  }
};

/// -1 inside a chunk and 0 on its first column (x % cx == 0), where the
/// left neighbour is the zero boundary.  Shift arithmetic, not a compare:
/// a compare of the 64-bit index keeps the int32 row loop from vectorizing.
template <std::size_t cx>
constexpr qdiff_t chunk_mask(std::size_t x) {
  static_assert((cx & (cx - 1)) == 0, "chunk widths are powers of two");
  return -static_cast<qdiff_t>(((x & (cx - 1)) + cx - 1) / cx);
}

/// Residuals of one row: δ = Dx(Dy(Dz d°)) with the differences taken
/// against the chunk's zero boundary, which is the Lorenzo prediction
/// error.  `c` points at the row's leading zero word; Dy/Dz read the tile's
/// previous row and plane.  `outlier` receives the row's dense outlier
/// values (0 where the code holds the residual).
template <int R>
void predict_row(const qdiff_t* c, std::size_t w, qdiff_t r, bool value_scheme, quant_t* quant,
                 qdiff_t* outlier) {
  using Tl = Tile<R>;
  const qdiff_t* up = R >= 2 ? c - Tl::kRow : c;
  const qdiff_t* back = R == 3 ? c - Tl::kPlane : c;
  const qdiff_t* back_up = R == 3 ? back - Tl::kRow : c;
  const qdiff_t park = value_scheme ? 0 : r;
  for (std::size_t x = 0; x < w; ++x) {
    qdiff_t cur = c[x + 1], left = c[x];
    if constexpr (R >= 2) {
      cur -= up[x + 1];
      left -= up[x];
    }
    if constexpr (R == 3) {
      cur -= back[x + 1] - back_up[x + 1];
      left -= back[x] - back_up[x];
    }
    const qdiff_t delta = cur - (left & chunk_mask<Tl::kShape.cx>(x));
    const bool in = delta > -r && delta < r;
    quant[x] = static_cast<quant_t>(in ? delta + r : park);
    outlier[x] = in ? 0 : (value_scheme ? c[x + 1] : delta);
  }
}

/// One block (column `bx` of a grid `grid_x` blocks wide): prequantize each
/// row of the box into the tile, emit the row's codes, and compact the
/// row's outliers into the first slots of the row's own range of the slot
/// buffer, with their count in the row's entry of the count buffer.  Rows
/// go in raster order, so the tile rows a residual reads are complete
/// before it.
template <int R, typename T, typename VD, typename VQ, typename VS, typename VC>
void construct_block(const VD& vdata, const VQ& vquant, const VS& vslots, const VC& vcount,
                     const Extents& ext, const Box& b, std::size_t bx, std::size_t grid_x,
                     double inv2eb, qdiff_t r, bool value_scheme) {
  using Tl = Tile<R>;
  // Only the pads are zeroed: every other word a residual reads is a
  // prequant value written earlier in raster order.
  std::array<qdiff_t, Tl::kWords> tile;
  std::array<qdiff_t, Tl::kWidth> outlier;
  if constexpr (R == 3) std::fill_n(tile.begin(), Tl::kPlane, 0);
  for (std::size_t lz = 0; lz < b.d; ++lz) {
    if constexpr (R >= 2) std::fill_n(tile.begin() + Tl::row(lz, 0) - Tl::kRow, b.w + 1, 0);
    for (std::size_t ly = 0; ly < b.h; ++ly) {
      qdiff_t* c = tile.data() + Tl::row(lz, ly);
      const std::size_t field_row = (b.z0 + lz) * ext.ny + b.y0 + ly;
      const std::size_t gi = field_row * ext.nx + b.x0;
      vdata.note_read(gi, b.w);
      const T* src = vdata.data() + gi;
      c[0] = 0;
      for (std::size_t x = 0; x < b.w; ++x) {
        c[x + 1] = prequant(static_cast<double>(src[x]) * inv2eb);
      }
      vquant.note_write(gi, b.w);
      predict_row<R>(c, b.w, r, value_scheme, vquant.data() + gi, outlier.data());
      qdiff_t any = 0;
      for (std::size_t x = 0; x < b.w; ++x) any |= outlier[x];
      std::uint16_t count = 0;
      if (any != 0) {
        // Exactly the nonzeros the dense-to-sparse gather keeps: in the
        // value scheme a zero prequant value is not stored.
        for (std::size_t x = 0; x < b.w; ++x) {
          if (outlier[x] == 0) continue;
          vslots[gi + count] = OutlierSlot(static_cast<std::uint32_t>(x), outlier[x]);
          ++count;
        }
      }
      vcount[field_row * grid_x + bx] = count;
    }
  }
}

}  // namespace

template <typename T>
void lorenzo_construct_into(std::span<const T> data, const Extents& ext, double eb_abs,
                            const QuantConfig& qcfg, OutlierScheme scheme,
                            ConstructVariant variant, PredictorProduct& res) {
  qcfg.validate();
  if (data.size() != ext.count()) {
    throw std::invalid_argument("lorenzo_construct: data size does not match extents");
  }
  if (!(eb_abs > 0.0) || !std::isfinite(eb_abs)) {
    throw std::invalid_argument("lorenzo_construct: error bound must be positive and finite");
  }

  const std::size_t n = ext.count();
  const auto grid = lorenzo_detail::block_grid(ext, kLorenzoRun);
  res.cost = {};
  res.quant.resize(n);          // the kernel writes every code
  res.outlier_slots.resize(n);  // OutlierSlot() writes nothing: no fill
  res.row_outliers.resize(ext.nz * ext.ny * grid.dim.x);

  const double inv2eb = 1.0 / (2.0 * eb_abs);
  const qdiff_t r = qcfg.radius();
  const bool value_scheme = scheme == OutlierScheme::kValue;

  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  // Every block owns one box of the row-major field: the same box for the
  // read of `data` and the writes of `quant` and the outlier slots, and
  // the matching box of the per-row counts, one column of them per block.
  const auto box = [&](ctr::AccessKind a, const char* buf) {
    return lorenzo_detail::box_clause(a, buf, grid, ext);
  };
  const auto launch = [&](auto rank) {
    chk::launch_3d("lorenzo_construct", grid.dim,
                   chk::bufs(chk::in(data, "data"),
                             chk::out(std::span<quant_t>(res.quant), "quant"),
                             chk::out(std::span<OutlierSlot>(res.outlier_slots), "slots"),
                             chk::out(std::span<std::uint16_t>(res.row_outliers), "counts")),
                   ctr::contract(box(ctr::AccessKind::kRead, "data"),
                                 box(ctr::AccessKind::kWrite, "quant"),
                                 box(ctr::AccessKind::kWrite, "slots"),
                                 lorenzo_detail::row_count_clause("counts", grid, ext)),
                   [&](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& vdata,
                       const auto& vquant, const auto& vslots, const auto& vcount) {
      construct_block<decltype(rank)::value, T>(
          vdata, vquant, vslots, vcount, ext, lorenzo_detail::box_of(grid, ext, bx, by, bz), bx,
          grid.dim.x, inv2eb, r, value_scheme);
    });
  };
  lorenzo_detail::dispatch_rank(ext.rank, launch);

  // The modeled cost is the paper's kernel, which reads the data once and
  // writes the codes and a dense outlier array once; this host kernel
  // compacts the outliers per row instead.  The variant picks only the
  // modeled attribution: cuSZ's shared-memory staging or cuSZ+'s
  // coalesced streaming.
  const bool baseline = variant == ConstructVariant::kBaseline;
  res.cost.bytes_read = n * sizeof(T);
  res.cost.bytes_written = n * (sizeof(quant_t) + sizeof(qdiff_t));
  res.cost.launches = 1;
  res.cost.flops = n * (2 + (std::size_t{1} << ext.rank));
  res.cost.parallel_items = n;
  res.cost.pattern =
      baseline ? sim::AccessPattern::kTiledShared : sim::AccessPattern::kCoalescedStreaming;
  res.cost.custom_factor = baseline ? kBaselineFactor[static_cast<std::size_t>(ext.rank)]
                                    : kOptimizedFactor[static_cast<std::size_t>(ext.rank)];
}

sim::KernelCost lorenzo_gather_outliers(const Extents& ext, std::size_t run,
                                        PredictorProduct& res) {
  const auto grid = lorenzo_detail::block_grid(ext, run);
  const std::vector<std::uint16_t>& counts = res.row_outliers;
  std::size_t nnz = 0;
  for (const std::uint16_t c : counts) nnz += c;
  auto& out = res.outliers;
  out.indices.resize(nnz);
  out.values.resize(nnz);
  // Box rows in field order, each block's piece of a field row in turn, are
  // index order: each row's slots go out as they are.
  const OutlierSlot* slots = res.outlier_slots.data();
  std::size_t k = 0;
  for (std::size_t row = 0, seg = 0; row < ext.nz * ext.ny; ++row) {
    for (std::size_t x0 = 0; x0 < ext.nx; x0 += grid.bw, ++seg) {
      const std::size_t base = row * ext.nx + x0;
      for (std::size_t j = 0; j < counts[seg]; ++j, ++k) {
        out.indices[k] = base + slots[base + j].col;
        out.values[k] = slots[base + j].value;
      }
    }
  }
  return outlier_gather_cost(ext.count(), nnz);
}

template <typename T>
PredictorProduct lorenzo_construct(std::span<const T> data, const Extents& ext, double eb_abs,
                                   const QuantConfig& qcfg, OutlierScheme scheme,
                                   ConstructVariant variant) {
  PredictorProduct res;
  lorenzo_construct_into(data, ext, eb_abs, qcfg, scheme, variant, res);
  (void)lorenzo_gather_outliers(ext, kLorenzoRun, res);
  return res;
}

template void lorenzo_construct_into<float>(std::span<const float>, const Extents&, double,
                                            const QuantConfig&, OutlierScheme, ConstructVariant,
                                            PredictorProduct&);
template void lorenzo_construct_into<double>(std::span<const double>, const Extents&, double,
                                             const QuantConfig&, OutlierScheme, ConstructVariant,
                                             PredictorProduct&);
template PredictorProduct lorenzo_construct<float>(std::span<const float>, const Extents&,
                                                   double, const QuantConfig&, OutlierScheme,
                                                   ConstructVariant);
template PredictorProduct lorenzo_construct<double>(std::span<const double>, const Extents&,
                                                    double, const QuantConfig&, OutlierScheme,
                                                    ConstructVariant);

}  // namespace szp
