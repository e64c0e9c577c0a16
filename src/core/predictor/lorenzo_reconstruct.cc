#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/predictor/lorenzo.hh"
#include "core/predictor/lorenzo_grid.hh"
#include "sim/block_scan.hh"
#include "sim/check.hh"
#include "sim/launch.hh"

namespace szp {

namespace {

using lorenzo_detail::Box;

// Bandwidth derating factors calibrated from Table II of the paper (V100
// columns): coarse cuSZ kernel, naive shared-memory partial sum, and the
// optimized fused partial sum, per rank.
constexpr std::array<double, 4> kCoarseFactor{0.0, 0.037, 0.33, 0.066};
constexpr std::array<double, 4> kNaiveFactor{0.0, 0.56, 0.44, 0.39};
constexpr std::array<double, 4> kFusedFactor{0.0, 0.70, 0.57, 0.53};

/// In-place partial sums over one box of q' through `at(gi)` -> qdiff_t&:
/// Algorithm 1 lines 10-12.  First an inclusive x-scan of every chunk row,
/// then y passes (each row adds the row before it) and z passes (each plane
/// adds the plane before it) across the whole box width, all in uint32
/// (scan_add), so wrapped sums of corrupt codes keep the same bits.
///
/// kLanes attributes every access to the virtual thread that owns it on the
/// GPU, for the word-granular checker: kLorenzoSequentiality-item fragment
/// lanes along x, one lane per column for y and per pillar for z, a barrier
/// between passes.  The unchecked instantiation carries none of it.
template <int R, bool kLanes, typename At>
void partial_sums(At&& at, const Extents& ext, const Box& b) {
  constexpr std::size_t cx = ChunkShape::for_rank(R).cx;
  const auto row = [&](std::size_t lz, std::size_t ly) {
    return ext.index(b.z0 + lz, b.y0 + ly, b.x0);
  };
  std::uint32_t lane = 0;
  for (std::size_t lz = 0; lz < b.d; ++lz) {
    for (std::size_t ly = 0; ly < b.h; ++ly) {
      const std::size_t base = row(lz, ly);
      for (std::size_t c0 = 0; c0 < b.w; c0 += cx) {
        const std::size_t len = std::min(cx, b.w - c0);
        const auto elem = [&](std::size_t i) -> qdiff_t& { return at(base + c0 + i); };
        if constexpr (kLanes) {
          sim::block_inclusive_scan_at<qdiff_t>(elem, len, kLorenzoSequentiality, lane);
          lane += static_cast<std::uint32_t>(sim::div_ceil(len, kLorenzoSequentiality));
        } else {
          qdiff_t acc = 0;
          for (std::size_t i = 0; i < len; ++i) elem(i) = acc = sim::scan_add(acc, elem(i));
        }
      }
    }
  }
  if constexpr (kLanes) sim::checked::barrier();
  // Adds row `prev` into row `cur`, element x owned by lane lane0 + x.
  const auto add_row = [&](std::size_t cur, std::size_t prev, std::size_t lane0) {
    for (std::size_t x = 0; x < b.w; ++x) {
      if constexpr (kLanes) sim::checked::this_thread(static_cast<std::uint32_t>(lane0 + x));
      at(cur + x) = sim::scan_add(at(cur + x), at(prev + x));
    }
  };
  if constexpr (R >= 2) {
    for (std::size_t lz = 0; lz < b.d; ++lz) {
      for (std::size_t ly = 1; ly < b.h; ++ly) add_row(row(lz, ly), row(lz, ly - 1), lz * b.w);
    }
    if constexpr (kLanes) sim::checked::barrier();
  }
  if constexpr (R == 3) {
    for (std::size_t lz = 1; lz < b.d; ++lz) {
      for (std::size_t ly = 0; ly < b.h; ++ly) add_row(row(lz, ly), row(lz - 1, ly), ly * b.w);
    }
    if constexpr (kLanes) sim::checked::barrier();
  }
}

/// kNaivePartialSum, the paper's proof-of-concept kernel: each chunk of the
/// box is staged through a thread-private copy ("shared memory"), scanned
/// there with one item per thread, and written back.  `at(i)` addresses
/// the tile by offsets of `text`.
template <int R, typename At>
void naive_chunks(At&& at, const Extents& text, const Box& b) {
  constexpr ChunkShape cs = ChunkShape::for_rank(R);
  std::array<qdiff_t, cs.count()> shared;
  for (std::size_t c0 = 0; c0 < b.w; c0 += cs.cx) {
    const std::size_t w = std::min(cs.cx, b.w - c0);
    const Extents local = R == 1   ? Extents::d1(w)
                          : R == 2 ? Extents::d2(b.h, w)
                                   : Extents::d3(b.d, b.h, w);
    const auto copy = [&](bool stage_in) {
      for (std::size_t lz = 0; lz < b.d; ++lz)
        for (std::size_t ly = 0; ly < b.h; ++ly)
          for (std::size_t lx = 0; lx < w; ++lx) {
            qdiff_t& tile = at(text.index(b.z0 + lz, b.y0 + ly, b.x0 + c0 + lx));
            qdiff_t& staged = shared[local.index(lz, ly, lx)];
            if (stage_in) {
              staged = tile;
            } else {
              tile = staged;
            }
          }
    };
    copy(true);
    partial_sums<R, false>([&shared](std::size_t i) -> qdiff_t& { return shared[i]; }, local,
                           Box{0, 0, 0, w, b.h, b.d});
    copy(false);
  }
}

/// Offsets of a block's tile: rows of the run width, one block row per
/// plane, so it holds any box (at most 8192, 8192 or 16384 words).
template <int R>
struct Tile {
  static constexpr ChunkShape kShape = ChunkShape::for_rank(R);
  static constexpr std::size_t kWidth = kLorenzoRun * kShape.cx;
  static constexpr std::size_t kWords = kWidth * kShape.cy * kShape.cz;
  static Extents extents() {
    return R == 1   ? Extents::d1(kWidth)
           : R == 2 ? Extents::d2(kShape.cy, kWidth)
                    : Extents::d3(kShape.cz, kShape.cy, kWidth);
  }
};

/// One block of lorenzo_reconstruct, in a tile addressed through `at` by
/// offsets of `text` with the box at `tb`: load each row as quant - radius
/// and add the outliers that fall in it, run the partial sums, and scale
/// into `out` (Algorithm 1 lines 9-13).  The tile is the block's stack
/// array, or under word-granular checking the registered scratch at the
/// field's own offsets, read and written through its view.
template <int R, typename T, bool kLanes, typename At, typename VQ, typename VI, typename VV,
          typename VO>
void rebuild_box(At&& at, const Extents& text, const Box& tb, const VQ& vquant, const VI& vidx,
                 const VV& vval, const VO& vout, const Extents& ext, const Box& b, qdiff_t r,
                 bool naive, double eb2) {
  const std::size_t nnz = vidx.size();
  std::size_t cur = 0;  // first outlier at or after the current row
  const auto each_row = [&](auto&& f) {
    for (std::size_t lz = 0; lz < b.d; ++lz) {
      for (std::size_t ly = 0; ly < b.h; ++ly) {
        f(ext.index(b.z0 + lz, b.y0 + ly, b.x0), text.index(tb.z0 + lz, tb.y0 + ly, tb.x0));
      }
    }
  };
  each_row([&](std::size_t gi, std::size_t ti) {
    if constexpr (kLanes) {
      for (std::size_t x = 0; x < b.w; ++x) at(ti + x) = static_cast<qdiff_t>(vquant[gi + x]) - r;
    } else {
      vquant.note_read(gi, b.w);
      const quant_t* q = vquant.data() + gi;
      qdiff_t* t = &at(ti);
      for (std::size_t x = 0; x < b.w; ++x) t[x] = static_cast<qdiff_t>(q[x]) - r;
    }
    // The indices strictly increase: binary-search the row's first one,
    // then add every outlier up to the row's end.  scan_add wraps a corrupt
    // residual instead of overflowing.
    cur = lorenzo_detail::first_outlier(vidx, cur, nnz, gi);
    for (; cur < nnz && vidx[cur] < gi + b.w; ++cur) {
      qdiff_t& v = at(ti + (static_cast<std::size_t>(vidx[cur]) - gi));
      v = sim::scan_add(v, vval[cur]);
    }
  });
  if constexpr (kLanes) sim::checked::barrier();  // the tile is loaded
  if (naive) {
    naive_chunks<R>(at, text, tb);
  } else {
    partial_sums<R, kLanes>(at, text, tb);
  }
  each_row([&](std::size_t gi, std::size_t ti) {
    if constexpr (kLanes) {
      for (std::size_t x = 0; x < b.w; ++x) {
        vout[gi + x] = static_cast<T>(static_cast<double>(at(ti + x)) * eb2);
      }
    } else {
      vout.note_write(gi, b.w);
      const qdiff_t* src = &at(ti);
      T* dst = vout.data() + gi;
      for (std::size_t x = 0; x < b.w; ++x) {
        dst[x] = static_cast<T>(static_cast<double>(src[x]) * eb2);
      }
    }
  });
}

/// One block: in the stack tile, or in the registered scratch when its view
/// is word-granular (`vtile` is null when no scratch is registered).
template <int R, typename T, typename VQ, typename VI, typename VV, typename VT, typename VO>
void reconstruct_block(const VQ& vquant, const VI& vidx, const VV& vval, const VT* vtile,
                       const VO& vout, const Extents& ext, const Box& b, qdiff_t r, bool naive,
                       double eb2) {
  if constexpr (!sim::checked::is_raw_view<VT>) {
    if (vtile != nullptr && vtile->word_granular()) {
      rebuild_box<R, T, true>([vtile](std::size_t gi) -> qdiff_t& { return (*vtile)[gi]; }, ext,
                              b, vquant, vidx, vval, vout, ext, b, r, naive, eb2);
      return;
    }
  }
  std::array<qdiff_t, Tile<R>::kWords> tile;
  qdiff_t* t = tile.data();
  rebuild_box<R, T, false>([t](std::size_t i) -> qdiff_t& { return t[i]; },
                           Tile<R>::extents(), Box{0, 0, 0, b.w, b.h, b.d}, vquant, vidx, vval,
                           vout, ext, b, r, naive, eb2);
}

}  // namespace

sim::KernelCost lorenzo_fuse_cost(std::size_t n, std::size_t nnz) {
  // The fuse streams the codes in and q' out; the scatter reads each
  // outlier's index and value and updates its q' word.
  sim::KernelCost c;
  c.bytes_read = n * sizeof(quant_t) + nnz * (sizeof(std::uint64_t) + 2 * sizeof(qdiff_t));
  c.bytes_written = n * sizeof(qdiff_t) + nnz * sizeof(qdiff_t);
  c.flops = n + nnz;
  c.parallel_items = n;
  c.pattern = sim::AccessPattern::kCoalescedStreaming;
  c.launches = 2;
  return c;
}

template <typename T>
sim::KernelCost lorenzo_reconstruct(std::span<const quant_t> quant,
                                    const sim::SparseVector<qdiff_t>& outliers,
                                    const Extents& ext, double eb_abs, std::int32_t radius,
                                    std::span<T> out, const ReconstructConfig& cfg) {
  const std::size_t n = ext.count();
  if (quant.size() != n || out.size() != n || outliers.values.size() != outliers.nnz()) {
    throw std::invalid_argument("lorenzo_reconstruct: size mismatch");
  }
  const bool naive = cfg.variant == ReconstructVariant::kNaivePartialSum;
  const double eb2 = 2.0 * eb_abs;
  const auto grid = lorenzo_detail::block_grid(ext, kLorenzoRun);

  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  const auto box = [&](ctr::AccessKind a, const char* buf) {
    return lorenzo_detail::box_clause(a, buf, grid, ext);
  };
  const std::span<const std::uint64_t> idx(outliers.indices);
  const std::span<const qdiff_t> val(outliers.values);
  // A block reads the outliers of its rows after a binary search: a
  // data-dependent read of the whole stream.
  const auto launch = [&](auto rank) {
    constexpr int R = decltype(rank)::value;
    const auto place = [&](std::uint32_t bx, std::uint32_t by, std::uint32_t bz) {
      return lorenzo_detail::box_of(grid, ext, bx, by, bz);
    };
    if (chk::mode() == chk::Mode::kWord) {
      // Word-granular checking keeps the partial sums' lane model on a
      // registered n-element scratch, one box per block.
      sim::device_vector<qdiff_t> scratch(n);
      chk::launch_3d("lorenzo_reconstruct", grid.dim,
                     chk::bufs(chk::in(quant, "quant"), chk::in(idx, "indices"),
                               chk::in(val, "values"),
                               chk::inout(std::span<qdiff_t>(scratch), "tile"),
                               chk::out(out, "out")),
                     ctr::contract(box(ctr::AccessKind::kRead, "quant"),
                                   ctr::reads_dyn("indices"), ctr::reads_dyn("values"),
                                   box(ctr::AccessKind::kReadWrite, "tile"),
                                   box(ctr::AccessKind::kWrite, "out")),
                     [&](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& vq,
                         const auto& vi, const auto& vv, const auto& vt, const auto& vo) {
        reconstruct_block<R, T>(vq, vi, vv, &vt, vo, ext, place(bx, by, bz), radius, naive, eb2);
      });
      return;
    }
    chk::launch_3d("lorenzo_reconstruct", grid.dim,
                   chk::bufs(chk::in(quant, "quant"), chk::in(idx, "indices"),
                             chk::in(val, "values"), chk::out(out, "out")),
                   ctr::contract(box(ctr::AccessKind::kRead, "quant"), ctr::reads_dyn("indices"),
                                 ctr::reads_dyn("values"), box(ctr::AccessKind::kWrite, "out")),
                   [&](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& vq,
                       const auto& vi, const auto& vv, const auto& vo) {
      const chk::raw_writer_view<qdiff_t>* no_scratch = nullptr;
      reconstruct_block<R, T>(vq, vi, vv, no_scratch, vo, ext, place(bx, by, bz), radius, naive,
                              eb2);
    });
  };
  lorenzo_detail::dispatch_rank(ext.rank, launch);

  // The modeled cost is the paper's kernel: in-place partial sums over the
  // fused residual field (q' read and written once, the output stored
  // once), one launch per scan direction.
  sim::KernelCost c;
  c.bytes_read = n * sizeof(qdiff_t);
  c.bytes_written = n * (sizeof(qdiff_t) + sizeof(T));
  c.flops = n * (2 * static_cast<std::size_t>(ext.rank) + 2);
  c.parallel_items = n;
  c.pattern = naive ? sim::AccessPattern::kTiledShared
                    : sim::AccessPattern::kCoalescedStreaming;
  const auto& table = naive ? kNaiveFactor : kFusedFactor;
  c.custom_factor = table[static_cast<std::size_t>(ext.rank)];
  c.launches = ext.rank;
  return c;
}

template <typename T>
sim::KernelCost lorenzo_reconstruct_coarse(std::span<const quant_t> quant,
                                           std::span<const qdiff_t> outlier_value_dense,
                                           const Extents& ext, double eb_abs,
                                           const QuantConfig& qcfg, std::span<T> out) {
  if (quant.size() != ext.count() || out.size() != ext.count() ||
      outlier_value_dense.size() != ext.count()) {
    throw std::invalid_argument("lorenzo_reconstruct_coarse: size mismatch");
  }
  const double eb2 = 2.0 * eb_abs;
  const std::int64_t r = qcfg.radius();
  const auto grid = lorenzo_detail::block_grid(ext, 1);

  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  const auto box = [&](ctr::AccessKind a, const char* buf) {
    return lorenzo_detail::box_clause(a, buf, grid, ext);
  };
  chk::launch_3d("lorenzo_reconstruct_coarse", grid.dim,
                 chk::bufs(chk::in(quant, "quant"),
                           chk::in(outlier_value_dense, "outlier"),
                           chk::out(out, "out")),
                 ctr::contract(box(ctr::AccessKind::kRead, "quant"),
                               box(ctr::AccessKind::kRead, "outlier"),
                               box(ctr::AccessKind::kWrite, "out")),
                 [&](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& vquant,
                     const auto& voutlier, const auto& vout) {
    const auto [x0, y0, z0, w, h, d] = lorenzo_detail::box_of(grid, ext, bx, by, bz);

    std::array<std::int64_t, ChunkShape::for_rank(3).count()> pq;  // reconstructed d°
    const auto lidx = [&](std::size_t lz, std::size_t ly, std::size_t lx) {
      return (lz * h + ly) * w + lx;
    };
    const auto at = [&](std::ptrdiff_t lz, std::ptrdiff_t ly, std::ptrdiff_t lx) -> std::int64_t {
      if (lx < 0 || ly < 0 || lz < 0) return 0;
      return pq[lidx(static_cast<std::size_t>(lz), static_cast<std::size_t>(ly),
                     static_cast<std::size_t>(lx))];
    };

    // Serial raster-order reconstruction: each value depends on its fully
    // reconstructed predecessors (the data dependency §II-B.2 describes).
    for (std::size_t lz = 0; lz < d; ++lz) {
      for (std::size_t ly = 0; ly < h; ++ly) {
        for (std::size_t lx = 0; lx < w; ++lx) {
          const auto x = static_cast<std::ptrdiff_t>(lx);
          const auto y = static_cast<std::ptrdiff_t>(ly);
          const auto z = static_cast<std::ptrdiff_t>(lz);
          std::int64_t pred = 0;
          switch (ext.rank) {
            case 1: pred = at(0, 0, x - 1); break;
            case 2: pred = at(0, y - 1, x) + at(0, y, x - 1) - at(0, y - 1, x - 1); break;
            case 3:
              pred = at(z, y - 1, x) + at(z, y, x - 1) + at(z - 1, y, x)
                   - at(z, y - 1, x - 1) - at(z - 1, y - 1, x) - at(z - 1, y, x - 1)
                   + at(z - 1, y - 1, x - 1);
              break;
            default: break;
          }
          const std::size_t gi = ext.index(z0 + lz, y0 + ly, x0 + lx);
          const quant_t q = vquant[gi];
          std::int64_t val;
          if (q == 0) {
            val = voutlier[gi];  // divergent outlier branch
          } else {
            val = pred + (static_cast<std::int64_t>(q) - r);
          }
          pq[lidx(lz, ly, lx)] = val;
          vout[gi] = static_cast<T>(static_cast<double>(val) * eb2);
        }
      }
    }
  });

  const std::size_t n = ext.count();
  const std::size_t chunks = grid.dim.count();
  // Every chunk reads its codes and dense outliers and stores its values.
  sim::KernelCost c;
  c.bytes_read = n * (sizeof(quant_t) + sizeof(qdiff_t));
  c.bytes_written = n * sizeof(T);
  c.flops = n * (2 * static_cast<std::size_t>(ext.rank) + 4);
  c.parallel_items = chunks;  // one virtual thread per chunk
  c.pattern = sim::AccessPattern::kStrided;
  c.custom_factor = kCoarseFactor[static_cast<std::size_t>(ext.rank)];
  return c;
}

template sim::KernelCost lorenzo_reconstruct<float>(std::span<const quant_t>,
                                                    const sim::SparseVector<qdiff_t>&,
                                                    const Extents&, double, std::int32_t,
                                                    std::span<float>, const ReconstructConfig&);
template sim::KernelCost lorenzo_reconstruct<double>(std::span<const quant_t>,
                                                     const sim::SparseVector<qdiff_t>&,
                                                     const Extents&, double, std::int32_t,
                                                     std::span<double>, const ReconstructConfig&);
template sim::KernelCost lorenzo_reconstruct_coarse<float>(std::span<const quant_t>,
                                                           std::span<const qdiff_t>,
                                                           const Extents&, double,
                                                           const QuantConfig&, std::span<float>);
template sim::KernelCost lorenzo_reconstruct_coarse<double>(std::span<const quant_t>,
                                                            std::span<const qdiff_t>,
                                                            const Extents&, double,
                                                            const QuantConfig&, std::span<double>);

}  // namespace szp
