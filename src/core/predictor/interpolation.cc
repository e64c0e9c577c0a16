#include "core/predictor/interpolation.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/aligned.hh"

namespace szp {

namespace {

/// Largest usable anchor level: the stride must stay within the largest
/// axis so at least one interpolation level exists where possible.
int clamp_level(const Extents& ext, int requested) {
  const std::size_t max_dim = std::max({ext.nx, ext.ny, ext.nz});
  int level = std::clamp(requested, 0, std::numeric_limits<std::size_t>::digits - 1);
  while (level > 0 && (std::size_t{1} << level) >= max_dim) --level;
  return level;
}

std::size_t axis_anchor_count(std::size_t n, std::size_t stride) {
  return (n - 1) / stride + 1;
}

/// Axis-interpolated prediction from reconstructed values at ±s: cubic
/// where ±3s exist too, linear otherwise, and a one-sided copy at the
/// upper border.
struct AxisPredictor {
  const float* rec;
  std::size_t stride_elems;  // memory stride of one axis step of size s
  std::size_t count;         // axis length in elements
  std::size_t s;             // axis step in index units

  [[nodiscard]] double at(std::size_t base_offset, std::size_t i) const {
    const auto v = [&](std::size_t idx) {
      return static_cast<double>(rec[base_offset + (idx / s) * stride_elems]);
    };
    if (i + s >= count) {
      return v(i - s);  // upper border: copy the left neighbor
    }
    if (i >= 3 * s && i + 3 * s < count) {
      return (-v(i - 3 * s) + 9.0 * v(i - s) + 9.0 * v(i + s) - v(i + 3 * s)) / 16.0;
    }
    return 0.5 * (v(i - s) + v(i + s));
  }
};

/// One outlier of the section: its field index and residual code.
struct Outlier {
  std::uint64_t index;
  qdiff_t value;
};

/// Visit every new point of the level with stride `s`, one axis pass at a
/// time, in an order identical between compression and decompression.
/// `fn(gi, pred)` handles one point given its axis-interpolated prediction.
template <typename Fn>
void sweep_level(const Extents& ext, float* rec, std::size_t s, Fn&& fn) {
  const std::size_t s2 = 2 * s;

  // Pass 1 — interpolate along x: coarse y/z, new x.
  for (std::size_t z = 0; z < ext.nz; z += s2) {
    for (std::size_t y = 0; y < ext.ny; y += s2) {
      AxisPredictor px{rec, s, ext.nx, s};
      const std::size_t row = ext.index(z, y, 0);
      for (std::size_t x = s; x < ext.nx; x += s2) {
        fn(row + x, px.at(row, x));
      }
    }
  }
  if (ext.rank >= 2) {
    // Pass 2 — along y: new y rows, x already filled at stride s.
    for (std::size_t z = 0; z < ext.nz; z += s2) {
      for (std::size_t y = s; y < ext.ny; y += s2) {
        AxisPredictor py{rec, s * ext.nx, ext.ny, s};
        for (std::size_t x = 0; x < ext.nx; x += s) {
          const std::size_t col = ext.index(z, 0, x);
          fn(ext.index(z, y, x), py.at(col, y));
        }
      }
    }
  }
  if (ext.rank >= 3) {
    // Pass 3 — along z: new z planes, x/y already at stride s.
    for (std::size_t z = s; z < ext.nz; z += s2) {
      for (std::size_t y = 0; y < ext.ny; y += s) {
        AxisPredictor pz{rec, s * ext.nx * ext.ny, ext.nz, s};
        for (std::size_t x = 0; x < ext.nx; x += s) {
          const std::size_t pillar = ext.index(0, y, x);
          fn(ext.index(z, y, x), pz.at(pillar, z));
        }
      }
    }
  }
}

/// Anchors first, in raster order, then every level from coarse to fine:
/// the one visit order of both directions.  `anchor(gi)` handles an anchor
/// and `fn(gi, pred)` a predicted point.
template <typename Anchor, typename Fn>
void visit_points(const Extents& ext, float* rec, int level, Anchor&& anchor, Fn&& fn) {
  const std::size_t stride = std::size_t{1} << level;
  for (std::size_t z = 0; z < ext.nz; z += (ext.rank >= 3 ? stride : ext.nz)) {
    for (std::size_t y = 0; y < ext.ny; y += (ext.rank >= 2 ? stride : ext.ny)) {
      for (std::size_t x = 0; x < ext.nx; x += stride) anchor(ext.index(z, y, x));
    }
  }
  for (std::size_t s = stride / 2; s >= 1; s /= 2) {
    sweep_level(ext, rec, s, fn);
    if (s == 1) break;
  }
}

/// Where the point at field index gi falls in the visit order of anchor
/// level L: bucket 0 holds the anchors, and bucket 1 + 3(L - 1 - t) + p
/// the points of level t's pass p (x, y, z = 0, 1, 2).  t is the smallest
/// trailing-zero count among the point's coordinates (a zero coordinate
/// counts as L), and the pass is z if z has t trailing zeros, else y, else
/// x.  Within a bucket the sweep goes in index order.
std::size_t visit_bucket(const Extents& ext, std::uint64_t gi, int level) {
  const auto zeros = [level](std::size_t c) {
    return c == 0 ? level : std::min(level, std::countr_zero(c));
  };
  const std::size_t plane = ext.nx * ext.ny;
  const int tz = zeros(gi / plane), ty = zeros(gi % plane / ext.nx), tx = zeros(gi % ext.nx);
  const int t = std::min({tz, ty, tx});
  if (t == level) return 0;
  const int pass = tz == t ? 2 : ty == t ? 1 : 0;
  return static_cast<std::size_t>(1 + 3 * (level - 1 - t) + pass);
}

sim::KernelCost interpolation_cost(const Extents& ext, int level, std::size_t elem_bytes) {
  const std::size_t n = ext.count();
  sim::KernelCost c;
  c.bytes_read = 3 * n * sizeof(float) + n * elem_bytes;
  c.bytes_written = n * (sizeof(quant_t) + sizeof(float));
  c.flops = n * 10;
  c.parallel_items = n / 2;  // the finest level's point count
  c.pattern = sim::AccessPattern::kStrided;
  c.custom_factor = 0.30;  // level-synchronous, mixed-stride access
  c.launches = 3 * std::max(level, 1);
  return c;
}

}  // namespace

std::size_t interpolation_anchor_count(const Extents& ext, int level) {
  const std::size_t stride = std::size_t{1} << clamp_level(ext, level);
  std::size_t count = axis_anchor_count(ext.nx, stride);
  if (ext.rank >= 2) count *= axis_anchor_count(ext.ny, stride);
  if (ext.rank >= 3) count *= axis_anchor_count(ext.nz, stride);
  return count;
}

template <typename T>
void interpolation_construct_into(std::span<const T> data, const Extents& ext, double eb_abs,
                                  const QuantConfig& qcfg, PredictorProduct& res) {
  qcfg.validate();
  if (data.size() != ext.count()) {
    throw std::invalid_argument("interpolation_construct: data size does not match extents");
  }
  if (!(eb_abs > 0.0) || !std::isfinite(eb_abs)) {
    throw std::invalid_argument("interpolation_construct: bad error bound");
  }

  const std::size_t n = ext.count();
  const std::int64_t r = qcfg.radius();
  const double inv2eb = 1.0 / (2.0 * eb_abs), eb2 = 2.0 * eb_abs;
  res.cost = {};
  res.level = clamp_level(ext, kInterpolationLevel);
  res.quant.assign(n, static_cast<quant_t>(r));

  // Working buffer of reconstructed values; every point is overwritten
  // before any finer level reads it, so it is a dense buffer, on huge
  // pages when large (sim/aligned.hh).
  sim::device_vector<float> rec(n);
  std::vector<Outlier> found;  // in visit order

  // Emit the code (or outlier) of point gi against `pred` and return the
  // reconstructed value.
  const auto encode = [&](std::size_t gi, double pred) {
    const std::int64_t q = std::llround((static_cast<double>(data[gi]) - pred) * inv2eb);
    if (q > -r && q < r) {
      res.quant[gi] = static_cast<quant_t>(q + r);
    } else {
      found.push_back({gi, static_cast<qdiff_t>(q)});
    }
    return pred + static_cast<double>(q) * eb2;
  };

  // Anchors: stored as float on the 2^L lattice, raster order.  The
  // lattice keeps the float; the anchor's own code slot quantizes what the
  // rounding to float lost (nothing for float32 fields), so double anchors
  // decode within the bound too.
  res.coefficients.clear();
  res.coefficients.reserve(interpolation_anchor_count(ext, res.level));
  visit_points(
      ext, rec.data(), res.level,
      [&](std::size_t gi) {
        const auto v = static_cast<float>(data[gi]);
        res.coefficients.push_back(v);
        (void)encode(gi, v);
        rec[gi] = v;
      },
      [&](std::size_t gi, double pred) { rec[gi] = static_cast<float>(encode(gi, pred)); });

  // The section is in index order: sort the visit-ordered outliers once.
  std::sort(found.begin(), found.end(),
            [](const Outlier& a, const Outlier& b) { return a.index < b.index; });
  res.outliers.indices.resize(found.size());
  res.outliers.values.resize(found.size());
  for (std::size_t i = 0; i < found.size(); ++i) {
    res.outliers.indices[i] = found[i].index;
    res.outliers.values[i] = found[i].value;
  }

  res.cost = interpolation_cost(ext, res.level, sizeof(T));
}

template <typename T>
PredictorProduct interpolation_construct(std::span<const T> data, const Extents& ext,
                                         double eb_abs, const QuantConfig& qcfg) {
  PredictorProduct res;
  interpolation_construct_into(data, ext, eb_abs, qcfg, res);
  return res;
}

template <typename T>
sim::KernelCost interpolation_reconstruct(std::span<const quant_t> quant,
                                          const sim::SparseVector<qdiff_t>& outliers,
                                          std::span<const float> anchors, int level,
                                          const Extents& ext, double eb_abs,
                                          const QuantConfig& qcfg, std::span<T> out) {
  const std::size_t n = ext.count();
  if (quant.size() != n || outliers.values.size() != outliers.nnz() || out.size() != n) {
    throw std::invalid_argument("interpolation_reconstruct: size mismatch");
  }
  const int lvl = clamp_level(ext, level);
  if (anchors.size() != interpolation_anchor_count(ext, lvl)) {
    throw std::invalid_argument("interpolation_reconstruct: anchor count mismatch");
  }
  const std::int64_t r = qcfg.radius();
  const double eb2 = 2.0 * eb_abs;

  // The section in visit order: one stable counting pass over the 3L + 1
  // buckets keeps each bucket in index order, as the sweep visits it.
  const std::size_t nnz = outliers.nnz();
  std::vector<std::size_t> start(3 * static_cast<std::size_t>(lvl) + 2, 0);
  for (const std::uint64_t gi : outliers.indices) ++start[visit_bucket(ext, gi, lvl) + 1];
  for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
  std::vector<Outlier> visit(nnz);
  for (std::size_t i = 0; i < nnz; ++i) {
    const std::uint64_t gi = outliers.indices[i];
    visit[start[visit_bucket(ext, gi, lvl)]++] = {gi, outliers.values[i]};
  }

  // Every value is written to `out` before it is rounded into the float
  // lattice the predictions read, so a double field keeps its precision.
  sim::device_vector<float> rec(n);
  std::size_t a = 0, cur = 0;
  const auto decode = [&](std::size_t gi, double pred) {
    std::int64_t q = static_cast<std::int64_t>(quant[gi]) - r;
    if (cur < nnz && visit[cur].index == gi) q += visit[cur++].value;
    const double v = pred + static_cast<double>(q) * eb2;
    out[gi] = static_cast<T>(v);
    return v;
  };
  visit_points(
      ext, rec.data(), lvl,
      [&](std::size_t gi) {
        rec[gi] = anchors[a++];
        (void)decode(gi, rec[gi]);
      },
      [&](std::size_t gi, double pred) { rec[gi] = static_cast<float>(decode(gi, pred)); });

  return interpolation_cost(ext, lvl, sizeof(T));
}

template void interpolation_construct_into<float>(std::span<const float>, const Extents&,
                                                  double, const QuantConfig&,
                                                  PredictorProduct&);
template void interpolation_construct_into<double>(std::span<const double>, const Extents&,
                                                   double, const QuantConfig&,
                                                   PredictorProduct&);
template PredictorProduct interpolation_construct<float>(std::span<const float>,
                                                         const Extents&, double,
                                                         const QuantConfig&);
template PredictorProduct interpolation_construct<double>(std::span<const double>,
                                                          const Extents&, double,
                                                          const QuantConfig&);
template sim::KernelCost interpolation_reconstruct<float>(std::span<const quant_t>,
                                                          const sim::SparseVector<qdiff_t>&,
                                                          std::span<const float>, int,
                                                          const Extents&, double,
                                                          const QuantConfig&, std::span<float>);
template sim::KernelCost interpolation_reconstruct<double>(std::span<const quant_t>,
                                                           const sim::SparseVector<qdiff_t>&,
                                                           std::span<const float>, int,
                                                           const Extents&, double,
                                                           const QuantConfig&, std::span<double>);

}  // namespace szp
