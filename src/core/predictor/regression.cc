#include "core/predictor/regression.hh"

#include <cmath>
#include <stdexcept>

#include "sim/check.hh"
#include "sim/launch.hh"

namespace szp {

namespace {

struct Grid {
  ChunkShape cs;
  std::size_t gx, gy, gz;
};

Grid make_grid(const Extents& ext) {
  Grid g{ChunkShape::for_rank(ext.rank), 0, 0, 0};
  g.gx = sim::div_ceil(ext.nx, g.cs.cx);
  g.gy = sim::div_ceil(ext.ny, g.cs.cy);
  g.gz = sim::div_ceil(ext.nz, g.cs.cz);
  return g;
}

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
  const Grid g = make_grid(ext);
  return g.gx * g.gy * g.gz;
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
  res.cost = {};
  res.quant.assign(n, 0);
  res.outlier_dense.assign(n, 0);
  const Grid grid = make_grid(ext);
  const std::size_t nchunks = grid.gx * grid.gy * grid.gz;
  res.coefficients.assign(nchunks * 4, 0.0f);

  const double inv2eb = 1.0 / (2.0 * eb_abs);
  const std::int64_t r = qcfg.radius();
  const ChunkShape cs = grid.cs;

  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  sim::traffic::Scope traffic_scope;  // contract-derived volumes for res.cost
  const auto tile_of = [&](ctr::AccessKind a, const char* buf) {
    return ctr::box(a, buf, ctr::bx() * cs.cx, static_cast<std::int64_t>(cs.cx),
                    ctr::by() * cs.cy, static_cast<std::int64_t>(cs.cy), ctr::bz() * cs.cz,
                    static_cast<std::int64_t>(cs.cz), static_cast<std::int64_t>(ext.nx),
                    static_cast<std::int64_t>(ext.ny), static_cast<std::int64_t>(ext.nz));
  };
  // coefficients[4 * chunk_id .. +4) with chunk_id = (bz*gy + by)*gx + bx.
  const ctr::Term coef_base =
      ctr::bx() * 4 + ctr::by() * (4 * grid.gx) + ctr::bz() * (4 * grid.gx * grid.gy);
  chk::launch_3d("regression_construct",
                 {static_cast<std::uint32_t>(grid.gx), static_cast<std::uint32_t>(grid.gy),
                  static_cast<std::uint32_t>(grid.gz)},
                 chk::bufs(chk::in(data, "data"),
                           chk::out(std::span<quant_t>(res.quant), "quant"),
                           chk::out(std::span<qdiff_t>(res.outlier_dense), "outlier"),
                           chk::inout(std::span<float>(res.coefficients), "coefficients")),
                 ctr::contract(tile_of(ctr::AccessKind::kRead, "data"),
                               tile_of(ctr::AccessKind::kWrite, "quant"),
                               tile_of(ctr::AccessKind::kWrite, "outlier"),
                               ctr::updates("coefficients", coef_base, 4)),
                 [&](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& vdata,
                     const auto& vquant, const auto& voutlier, const auto& vcoef) {
    const std::size_t x0 = bx * cs.cx, y0 = by * cs.cy, z0 = bz * cs.cz;
    const std::size_t w = std::min(cs.cx, ext.nx - x0);
    const std::size_t h = std::min(cs.cy, ext.ny - y0);
    const std::size_t d = std::min(cs.cz, ext.nz - z0);

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
        (static_cast<std::size_t>(bz) * grid.gy + by) * grid.gx + bx;
    vcoef[chunk_id * 4 + 0] = static_cast<float>(fit.b0);
    vcoef[chunk_id * 4 + 1] = static_cast<float>(fit.bx);
    vcoef[chunk_id * 4 + 2] = static_cast<float>(fit.by);
    vcoef[chunk_id * 4 + 3] = static_cast<float>(fit.bz);
    fit.b0 = vcoef[chunk_id * 4 + 0];
    fit.bx = vcoef[chunk_id * 4 + 1];
    fit.by = vcoef[chunk_id * 4 + 2];
    fit.bz = vcoef[chunk_id * 4 + 3];

    // Pass 2: quantize residuals against the (rounded) fit.
    for (std::size_t lz = 0; lz < d; ++lz) {
      for (std::size_t ly = 0; ly < h; ++ly) {
        for (std::size_t lx = 0; lx < w; ++lx) {
          const std::size_t gi = ext.index(z0 + lz, y0 + ly, x0 + lx);
          const double resid = static_cast<double>(vdata[gi]) - fit.at(lz, ly, lx);
          const std::int64_t k = std::llround(resid * inv2eb);
          if (k > -r && k < r) {
            vquant[gi] = static_cast<quant_t>(k + r);
          } else {
            vquant[gi] = static_cast<quant_t>(r);
            voutlier[gi] = static_cast<qdiff_t>(k);
          }
        }
      }
    }
  });

  // Traffic from the footprint contract (the residual pass re-reads the
  // chunk it just fitted, which the per-block footprint model treats as
  // cached); arithmetic and calibration stay hand-written.
  traffic_scope.apply(res.cost);
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
  return res;
}

template <typename T>
sim::KernelCost regression_reconstruct(std::span<const quant_t> quant,
                                       std::span<const qdiff_t> outlier_dense,
                                       std::span<const float> coefficients, const Extents& ext,
                                       double eb_abs, const QuantConfig& qcfg,
                                       std::span<T> out) {
  const std::size_t n = ext.count();
  if (quant.size() != n || outlier_dense.size() != n || out.size() != n) {
    throw std::invalid_argument("regression_reconstruct: size mismatch");
  }
  const Grid grid = make_grid(ext);
  if (coefficients.size() != grid.gx * grid.gy * grid.gz * 4) {
    throw std::invalid_argument("regression_reconstruct: coefficient count mismatch");
  }
  const double eb2 = 2.0 * eb_abs;
  const std::int64_t r = qcfg.radius();
  const ChunkShape cs = grid.cs;

  namespace chk = sim::checked;
  namespace ctr = sim::contract;
  sim::traffic::Scope traffic_scope;  // contract-derived volumes for the cost
  const auto tile_of = [&](ctr::AccessKind a, const char* buf) {
    return ctr::box(a, buf, ctr::bx() * cs.cx, static_cast<std::int64_t>(cs.cx),
                    ctr::by() * cs.cy, static_cast<std::int64_t>(cs.cy), ctr::bz() * cs.cz,
                    static_cast<std::int64_t>(cs.cz), static_cast<std::int64_t>(ext.nx),
                    static_cast<std::int64_t>(ext.ny), static_cast<std::int64_t>(ext.nz));
  };
  chk::launch_3d("regression_reconstruct",
                 {static_cast<std::uint32_t>(grid.gx), static_cast<std::uint32_t>(grid.gy),
                  static_cast<std::uint32_t>(grid.gz)},
                 chk::bufs(chk::in(quant, "quant"), chk::in(outlier_dense, "outlier"),
                           chk::in(coefficients, "coefficients"), chk::out(out, "out")),
                 ctr::contract(tile_of(ctr::AccessKind::kRead, "quant"),
                               tile_of(ctr::AccessKind::kRead, "outlier"),
                               ctr::reads("coefficients",
                                          ctr::bx() * 4 + ctr::by() * (4 * grid.gx) +
                                              ctr::bz() * (4 * grid.gx * grid.gy),
                                          4),
                               tile_of(ctr::AccessKind::kWrite, "out")),
                 [&](std::uint32_t bx, std::uint32_t by, std::uint32_t bz, const auto& vquant,
                     const auto& voutlier, const auto& vcoef, const auto& vout) {
    const std::size_t x0 = bx * cs.cx, y0 = by * cs.cy, z0 = bz * cs.cz;
    const std::size_t w = std::min(cs.cx, ext.nx - x0);
    const std::size_t h = std::min(cs.cy, ext.ny - y0);
    const std::size_t d = std::min(cs.cz, ext.nz - z0);
    const std::size_t chunk_id =
        (static_cast<std::size_t>(bz) * grid.gy + by) * grid.gx + bx;
    PlaneFit fit;
    fit.b0 = vcoef[chunk_id * 4 + 0];
    fit.bx = vcoef[chunk_id * 4 + 1];
    fit.by = vcoef[chunk_id * 4 + 2];
    fit.bz = vcoef[chunk_id * 4 + 3];
    fit.mx = (static_cast<double>(w) - 1.0) / 2.0;
    fit.my = (static_cast<double>(h) - 1.0) / 2.0;
    fit.mz = (static_cast<double>(d) - 1.0) / 2.0;

    for (std::size_t lz = 0; lz < d; ++lz) {
      for (std::size_t ly = 0; ly < h; ++ly) {
        for (std::size_t lx = 0; lx < w; ++lx) {
          const std::size_t gi = ext.index(z0 + lz, y0 + ly, x0 + lx);
          const std::int64_t k =
              static_cast<std::int64_t>(vquant[gi]) - r + voutlier[gi];
          vout[gi] = static_cast<T>(fit.at(lz, ly, lx) + static_cast<double>(k) * eb2);
        }
      }
    }
  });

  sim::KernelCost c;
  traffic_scope.apply(c);  // contract-derived: quant+outlier+coef reads, out store
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
                                                       std::span<const qdiff_t>,
                                                       std::span<const float>, const Extents&,
                                                       double, const QuantConfig&,
                                                       std::span<float>);
template sim::KernelCost regression_reconstruct<double>(std::span<const quant_t>,
                                                        std::span<const qdiff_t>,
                                                        std::span<const float>, const Extents&,
                                                        double, const QuantConfig&,
                                                        std::span<double>);

}  // namespace szp
