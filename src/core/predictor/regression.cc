#include "core/predictor/regression.hh"

#include <cmath>
#include <stdexcept>

#include "core/predictor/lorenzo.hh"
#include "core/predictor/lorenzo_grid.hh"
#include "sim/check.hh"

namespace szp {

namespace {

/// Closed-form least squares on a regular grid: with centered coordinates
/// u = pos - mean(pos) per axis, the design matrix is orthogonal, so
/// slope_axis = sum(u·d) / sum(u²) and b0 = mean(d).
struct PlaneFit {
  double b0 = 0, bx = 0, by = 0, bz = 0;
  double mx = 0, my = 0, mz = 0;  // coordinate means

  [[nodiscard]] double at(std::size_t lz, std::size_t ly, std::size_t lx) const {
    return b0 + bx * (static_cast<double>(lx) - mx) + by * (static_cast<double>(ly) - my) +
           bz * (static_cast<double>(lz) - mz);
  }
};

}  // namespace

std::size_t regression_chunk_count(const Extents& ext) {
  return lorenzo_detail::block_grid(ext, 1).dim.count();
}

template <typename T>
void regression_construct_into(std::span<const T> data, const Extents& ext, double eb_abs,
                               const QuantConfig& qcfg, PredictorProduct& res) {
  qcfg.validate();
  if (data.size() != ext.count()) {
    throw std::invalid_argument("regression_construct: data size does not match extents");
  }
  if (!(eb_abs > 0.0) || !std::isfinite(eb_abs)) {
    throw std::invalid_argument("regression_construct: error bound must be positive and finite");
  }

  const std::size_t n = ext.count();
  // One chunk per block, the grid and chunk ids of Lorenzo's coarse kernel.
  const auto grid = lorenzo_detail::block_grid(ext, 1);
  const std::size_t nchunks = grid.dim.count();
  res.cost = {};
  res.quant.resize(n);          // the kernel writes every code
  res.outlier_slots.resize(n);  // OutlierSlot() writes nothing: no fill
  res.row_outliers.resize(ext.nz * ext.ny * grid.dim.x);
  res.coefficients.assign(nchunks * 4, 0.0f);

  const double inv2eb = 1.0 / (2.0 * eb_abs);
  const std::int64_t r = qcfg.radius();

  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  const auto box = [&](ctr::AccessKind a, const char* buf) {
    return lorenzo_detail::box_clause(a, buf, grid, ext);
  };
  // coefficients[4 * chunk_id .. +4) with chunk_id = (bz*gy + by)*gx + bx.
  const ctr::Term coef_base =
      ctr::bx() * 4 + ctr::by() * (4 * grid.dim.x) + ctr::bz() * (4 * grid.dim.x * grid.dim.y);
  chk::launch_3d("regression_construct", grid.dim,
                 chk::bufs(chk::in(data, "data"),
                           chk::out(std::span<quant_t>(res.quant), "quant"),
                           chk::out(std::span<OutlierSlot>(res.outlier_slots), "slots"),
                           chk::out(std::span<std::uint16_t>(res.row_outliers), "counts"),
                           chk::inout(std::span<float>(res.coefficients), "coefficients")),
                 ctr::contract(box(ctr::AccessKind::kRead, "data"),
                               box(ctr::AccessKind::kWrite, "quant"),
                               box(ctr::AccessKind::kWrite, "slots"),
                               lorenzo_detail::row_count_clause("counts", grid, ext),
                               ctr::updates("coefficients", coef_base, 4)),
                 [&](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& vdata,
                     const auto& vquant, const auto& vslots, const auto& vcount,
                     const auto& vcoef) {
    const auto [x0, y0, z0, w, h, d] = lorenzo_detail::box_of(grid, ext, bx, by, bz);

    // Pass 1: accumulate the orthogonal least-squares sums.
    PlaneFit fit;
    fit.mx = (static_cast<double>(w) - 1.0) / 2.0;
    fit.my = (static_cast<double>(h) - 1.0) / 2.0;
    fit.mz = (static_cast<double>(d) - 1.0) / 2.0;
    double sum = 0, sux = 0, suy = 0, suz = 0, sxx = 0, syy = 0, szz = 0;
    for (std::size_t lz = 0; lz < d; ++lz) {
      for (std::size_t ly = 0; ly < h; ++ly) {
        for (std::size_t lx = 0; lx < w; ++lx) {
          const double v = vdata[ext.index(z0 + lz, y0 + ly, x0 + lx)];
          const double ux = static_cast<double>(lx) - fit.mx;
          const double uy = static_cast<double>(ly) - fit.my;
          const double uz = static_cast<double>(lz) - fit.mz;
          sum += v;
          sux += ux * v;
          suy += uy * v;
          suz += uz * v;
          sxx += ux * ux;
          syy += uy * uy;
          szz += uz * uz;
        }
      }
    }
    // sxx/syy/szz already sum u² over every element of the chunk, so each
    // slope is simply sum(u·d)/sum(u²).
    const auto count = static_cast<double>(w * h * d);
    fit.b0 = sum / count;
    fit.bx = sxx > 0 ? sux / sxx : 0.0;
    fit.by = syy > 0 ? suy / syy : 0.0;
    fit.bz = szz > 0 ? suz / szz : 0.0;

    // Store coefficients as float32 (they are reread in this exact
    // precision during reconstruction, so the bound is unaffected).
    const std::size_t chunk_id =
        (static_cast<std::size_t>(bz) * grid.dim.y + by) * grid.dim.x + bx;
    vcoef[chunk_id * 4 + 0] = static_cast<float>(fit.b0);
    vcoef[chunk_id * 4 + 1] = static_cast<float>(fit.bx);
    vcoef[chunk_id * 4 + 2] = static_cast<float>(fit.by);
    vcoef[chunk_id * 4 + 3] = static_cast<float>(fit.bz);
    fit.b0 = vcoef[chunk_id * 4 + 0];
    fit.bx = vcoef[chunk_id * 4 + 1];
    fit.by = vcoef[chunk_id * 4 + 2];
    fit.bz = vcoef[chunk_id * 4 + 3];

    // Pass 2: quantize residuals against the (rounded) fit, and compact
    // each row's outliers into the first slots of the row's own range.  A
    // row holds at most 256 elements, so its count fits in 16 bits.
    for (std::size_t lz = 0; lz < d; ++lz) {
      for (std::size_t ly = 0; ly < h; ++ly) {
        const std::size_t field_row = (z0 + lz) * ext.ny + y0 + ly;
        const std::size_t row = field_row * ext.nx + x0;
        std::uint16_t outliers = 0;
        for (std::size_t lx = 0; lx < w; ++lx) {
          const double resid = static_cast<double>(vdata[row + lx]) - fit.at(lz, ly, lx);
          const std::int64_t k = std::llround(resid * inv2eb);
          if (k > -r && k < r) {
            vquant[row + lx] = static_cast<quant_t>(k + r);
          } else {
            vquant[row + lx] = static_cast<quant_t>(r);
            vslots[row + outliers] =
                OutlierSlot(static_cast<std::uint32_t>(lx), static_cast<qdiff_t>(k));
            ++outliers;
          }
        }
        vcount[field_row * grid.dim.x + bx] = outliers;
      }
    }
  });

  // The modeled cost is a kernel that reads the data and each chunk's
  // coefficients, and writes the coefficients, the codes and a dense
  // outlier array once; this host kernel compacts the outliers per row
  // instead.
  const std::size_t coef_bytes = nchunks * 4 * sizeof(float);
  res.cost.bytes_read = n * sizeof(T) + coef_bytes;
  res.cost.bytes_written = n * (sizeof(quant_t) + sizeof(qdiff_t)) + coef_bytes;
  res.cost.flops = n * 14;
  res.cost.parallel_items = n;
  res.cost.pattern = sim::AccessPattern::kCoalescedStreaming;
  res.cost.custom_factor = 0.55;  // two-pass fit is heavier than Lorenzo
  res.cost.launches = 2;
}

template <typename T>
PredictorProduct regression_construct(std::span<const T> data, const Extents& ext, double eb_abs,
                                      const QuantConfig& qcfg) {
  PredictorProduct res;
  regression_construct_into(data, ext, eb_abs, qcfg, res);
  (void)lorenzo_gather_outliers(ext, 1, res);
  return res;
}

template <typename T>
sim::KernelCost regression_reconstruct(std::span<const quant_t> quant,
                                       const sim::SparseVector<qdiff_t>& outliers,
                                       std::span<const float> coefficients, const Extents& ext,
                                       double eb_abs, const QuantConfig& qcfg,
                                       std::span<T> out) {
  const std::size_t n = ext.count();
  if (quant.size() != n || outliers.values.size() != outliers.nnz() || out.size() != n) {
    throw std::invalid_argument("regression_reconstruct: size mismatch");
  }
  const auto grid = lorenzo_detail::block_grid(ext, 1);
  const std::size_t nchunks = grid.dim.count();
  if (coefficients.size() != nchunks * 4) {
    throw std::invalid_argument("regression_reconstruct: coefficient count mismatch");
  }
  const double eb2 = 2.0 * eb_abs;
  const std::int64_t r = qcfg.radius();

  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  const auto box = [&](ctr::AccessKind a, const char* buf) {
    return lorenzo_detail::box_clause(a, buf, grid, ext);
  };
  const std::span<const std::uint64_t> idx(outliers.indices);
  const std::span<const qdiff_t> val(outliers.values);
  // A block reads the outliers of its rows after a binary search: a
  // data-dependent read of the whole stream.
  chk::launch_3d("regression_reconstruct", grid.dim,
                 chk::bufs(chk::in(quant, "quant"), chk::in(idx, "indices"),
                           chk::in(val, "values"), chk::in(coefficients, "coefficients"),
                           chk::out(out, "out")),
                 ctr::contract(box(ctr::AccessKind::kRead, "quant"), ctr::reads_dyn("indices"),
                               ctr::reads_dyn("values"),
                               ctr::reads("coefficients",
                                          ctr::bx() * 4 + ctr::by() * (4 * grid.dim.x) +
                                              ctr::bz() * (4 * grid.dim.x * grid.dim.y),
                                          4),
                               box(ctr::AccessKind::kWrite, "out")),
                 [&](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& vquant,
                     const auto& vidx, const auto& vval, const auto& vcoef, const auto& vout) {
    const auto [x0, y0, z0, w, h, d] = lorenzo_detail::box_of(grid, ext, bx, by, bz);
    const std::size_t chunk_id =
        (static_cast<std::size_t>(bz) * grid.dim.y + by) * grid.dim.x + bx;
    PlaneFit fit;
    fit.b0 = vcoef[chunk_id * 4 + 0];
    fit.bx = vcoef[chunk_id * 4 + 1];
    fit.by = vcoef[chunk_id * 4 + 2];
    fit.bz = vcoef[chunk_id * 4 + 3];
    fit.mx = (static_cast<double>(w) - 1.0) / 2.0;
    fit.my = (static_cast<double>(h) - 1.0) / 2.0;
    fit.mz = (static_cast<double>(d) - 1.0) / 2.0;

    const std::size_t nnz = vidx.size();
    std::size_t cur = 0;  // the next outlier at or after the current element
    for (std::size_t lz = 0; lz < d; ++lz) {
      for (std::size_t ly = 0; ly < h; ++ly) {
        const std::size_t row = ext.index(z0 + lz, y0 + ly, x0);
        cur = lorenzo_detail::first_outlier(vidx, cur, nnz, row);
        for (std::size_t lx = 0; lx < w; ++lx) {
          std::int64_t k = static_cast<std::int64_t>(vquant[row + lx]) - r;
          if (cur < nnz && vidx[cur] == row + lx) k += vval[cur++];
          vout[row + lx] = static_cast<T>(fit.at(lz, ly, lx) + static_cast<double>(k) * eb2);
        }
      }
    }
  });

  // The modeled cost is a kernel that reads the codes, a dense outlier
  // array and each chunk's coefficients, and stores the output once.
  sim::KernelCost c;
  c.bytes_read = n * (sizeof(quant_t) + sizeof(qdiff_t)) + nchunks * 4 * sizeof(float);
  c.bytes_written = n * sizeof(T);
  c.flops = n * 8;
  c.parallel_items = n;
  c.pattern = sim::AccessPattern::kCoalescedStreaming;
  c.custom_factor = 0.65;  // no scan passes: embarrassingly parallel
  return c;
}

template void regression_construct_into<float>(std::span<const float>, const Extents&, double,
                                               const QuantConfig&, PredictorProduct&);
template void regression_construct_into<double>(std::span<const double>, const Extents&, double,
                                                const QuantConfig&, PredictorProduct&);
template PredictorProduct regression_construct<float>(std::span<const float>, const Extents&,
                                                      double, const QuantConfig&);
template PredictorProduct regression_construct<double>(std::span<const double>, const Extents&,
                                                       double, const QuantConfig&);
template sim::KernelCost regression_reconstruct<float>(std::span<const quant_t>,
                                                       const sim::SparseVector<qdiff_t>&,
                                                       std::span<const float>, const Extents&,
                                                       double, const QuantConfig&,
                                                       std::span<float>);
template sim::KernelCost regression_reconstruct<double>(std::span<const quant_t>,
                                                        const sim::SparseVector<qdiff_t>&,
                                                        std::span<const float>, const Extents&,
                                                        double, const QuantConfig&,
                                                        std::span<double>);

}  // namespace szp
