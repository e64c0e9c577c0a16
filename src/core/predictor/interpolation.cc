#include "core/predictor/interpolation.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/launch.hh"

namespace szp {

namespace {

/// Largest usable anchor level: the stride must stay within the largest
/// axis so at least one interpolation level exists where possible.
int clamp_level(const Extents& ext, int requested) {
  const std::size_t max_dim = std::max({ext.nx, ext.ny, ext.nz});
  int level = std::max(requested, 0);
  while (level > 0 && (std::size_t{1} << level) >= max_dim) --level;
  return level;
}

std::size_t axis_anchor_count(std::size_t n, std::size_t stride) {
  return (n - 1) / stride + 1;
}

/// Axis-interpolated prediction from reconstructed values at ±s (and ±3s
/// for the cubic form), with a one-sided copy at the upper border.
struct AxisPredictor {
  const float* rec;
  std::size_t stride_elems;  // memory stride of one axis step of size s
  std::size_t count;         // axis length in elements
  std::size_t s;             // axis step in index units
  bool cubic;

  [[nodiscard]] double at(std::size_t base_offset, std::size_t i) const {
    const auto v = [&](std::size_t idx) {
      return static_cast<double>(rec[base_offset + (idx / s) * stride_elems]);
    };
    if (i + s >= count) {
      return v(i - s);  // upper border: copy the left neighbor
    }
    if (cubic && i >= 3 * s && i + 3 * s < count) {
      return (-v(i - 3 * s) + 9.0 * v(i - s) + 9.0 * v(i + s) - v(i + 3 * s)) / 16.0;
    }
    return 0.5 * (v(i - s) + v(i + s));
  }
};

/// One quantize-or-reconstruct step shared by both directions.
struct PointCodec {
  double inv2eb;
  double eb2;
  std::int64_t radius;

  /// Compression: emit the code/outlier for `original` and return the
  /// reconstructed value.
  double encode(double original, double pred, quant_t* code, qdiff_t* outlier) const {
    const std::int64_t q = std::llround((original - pred) * inv2eb);
    if (q > -radius && q < radius) {
      *code = static_cast<quant_t>(q + radius);
      *outlier = 0;
    } else {
      *code = static_cast<quant_t>(radius);
      *outlier = static_cast<qdiff_t>(q);
    }
    return pred + static_cast<double>(q) * eb2;
  }

  /// Decompression: rebuild the value from code/outlier.
  [[nodiscard]] double decode(quant_t code, qdiff_t outlier, double pred) const {
    const std::int64_t q = static_cast<std::int64_t>(code) - radius + outlier;
    return pred + static_cast<double>(q) * eb2;
  }
};

/// Visit every new point of the level with stride `s`, one axis pass at a
/// time, in an order identical between compression and decompression.
/// `fn(gi, pred)` handles one point given its axis-interpolated prediction.
template <typename Fn>
void sweep_level(const Extents& ext, float* rec, std::size_t s, bool cubic, Fn&& fn) {
  const std::size_t s2 = 2 * s;

  // Pass 1 — interpolate along x: coarse y/z, new x.
  for (std::size_t z = 0; z < ext.nz; z += s2) {
    for (std::size_t y = 0; y < ext.ny; y += s2) {
      AxisPredictor px{rec, s, ext.nx, s, cubic};
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
        AxisPredictor py{rec, s * ext.nx, ext.ny, s, cubic};
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
        AxisPredictor pz{rec, s * ext.nx * ext.ny, ext.nz, s, cubic};
        for (std::size_t x = 0; x < ext.nx; x += s) {
          const std::size_t pillar = ext.index(0, y, x);
          fn(ext.index(z, y, x), pz.at(pillar, z));
        }
      }
    }
  }
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
                                  const QuantConfig& qcfg, const InterpolationConfig& cfg,
                                  PredictorProduct& res) {
  qcfg.validate();
  if (data.size() != ext.count()) {
    throw std::invalid_argument("interpolation_construct: data size does not match extents");
  }
  if (!(eb_abs > 0.0) || !std::isfinite(eb_abs)) {
    throw std::invalid_argument("interpolation_construct: bad error bound");
  }

  const std::size_t n = ext.count();
  res.cost = {};
  res.level = clamp_level(ext, cfg.max_level);
  res.quant.assign(n, static_cast<quant_t>(qcfg.radius()));
  res.outlier_dense.assign(n, 0);

  const std::size_t stride = std::size_t{1} << res.level;
  const PointCodec codec{1.0 / (2.0 * eb_abs), 2.0 * eb_abs, qcfg.radius()};

  // Working buffer of reconstructed values; every point is overwritten
  // before any finer level reads it.
  std::vector<float> rec(n);

  // Anchors: stored as float on the 2^L lattice, raster order.  The
  // lattice keeps the float; the anchor's own code slot quantizes what the
  // rounding to float lost (nothing for float32 fields), so double anchors
  // decode within the bound too.
  res.coefficients.clear();
  res.coefficients.reserve(interpolation_anchor_count(ext, res.level));
  for (std::size_t z = 0; z < ext.nz; z += (ext.rank >= 3 ? stride : ext.nz)) {
    for (std::size_t y = 0; y < ext.ny; y += (ext.rank >= 2 ? stride : ext.ny)) {
      for (std::size_t x = 0; x < ext.nx; x += stride) {
        const std::size_t gi = ext.index(z, y, x);
        const auto v = static_cast<float>(data[gi]);
        res.coefficients.push_back(v);
        (void)codec.encode(static_cast<double>(data[gi]), v, &res.quant[gi],
                           &res.outlier_dense[gi]);
        rec[gi] = v;
      }
    }
  }

  // Levels from coarse to fine.
  for (std::size_t s = stride / 2; s >= 1; s /= 2) {
    sweep_level(ext, rec.data(), s, cfg.cubic, [&](std::size_t gi, double pred) {
      rec[gi] = static_cast<float>(codec.encode(static_cast<double>(data[gi]), pred,
                                                &res.quant[gi], &res.outlier_dense[gi]));
    });
    if (s == 1) break;
  }

  res.cost = interpolation_cost(ext, res.level, sizeof(T));
}

template <typename T>
PredictorProduct interpolation_construct(std::span<const T> data, const Extents& ext,
                                         double eb_abs, const QuantConfig& qcfg,
                                         const InterpolationConfig& cfg) {
  PredictorProduct res;
  interpolation_construct_into(data, ext, eb_abs, qcfg, cfg, res);
  return res;
}

template <typename T>
sim::KernelCost interpolation_reconstruct(std::span<const quant_t> quant,
                                          std::span<const qdiff_t> outlier_dense,
                                          std::span<const float> anchors, int level,
                                          bool cubic, const Extents& ext, double eb_abs,
                                          const QuantConfig& qcfg, std::span<T> out) {
  const std::size_t n = ext.count();
  if (quant.size() != n || outlier_dense.size() != n || out.size() != n) {
    throw std::invalid_argument("interpolation_reconstruct: size mismatch");
  }
  const int lvl = clamp_level(ext, level);
  if (anchors.size() != interpolation_anchor_count(ext, lvl)) {
    throw std::invalid_argument("interpolation_reconstruct: anchor count mismatch");
  }
  const std::size_t stride = std::size_t{1} << lvl;
  const PointCodec codec{1.0 / (2.0 * eb_abs), 2.0 * eb_abs, qcfg.radius()};

  // Every value is written to `out` before it is rounded into the float
  // lattice the predictions read, so a double field keeps its precision.
  std::vector<float> rec(n);
  std::size_t a = 0;
  for (std::size_t z = 0; z < ext.nz; z += (ext.rank >= 3 ? stride : ext.nz)) {
    for (std::size_t y = 0; y < ext.ny; y += (ext.rank >= 2 ? stride : ext.ny)) {
      for (std::size_t x = 0; x < ext.nx; x += stride) {
        const std::size_t gi = ext.index(z, y, x);
        rec[gi] = anchors[a++];
        out[gi] = static_cast<T>(codec.decode(quant[gi], outlier_dense[gi], rec[gi]));
      }
    }
  }

  for (std::size_t s = stride / 2; s >= 1; s /= 2) {
    sweep_level(ext, rec.data(), s, cubic, [&](std::size_t gi, double pred) {
      const double v = codec.decode(quant[gi], outlier_dense[gi], pred);
      out[gi] = static_cast<T>(v);
      rec[gi] = static_cast<float>(v);
    });
    if (s == 1) break;
  }

  return interpolation_cost(ext, lvl, sizeof(T));
}

template void interpolation_construct_into<float>(std::span<const float>, const Extents&,
                                                  double, const QuantConfig&,
                                                  const InterpolationConfig&,
                                                  PredictorProduct&);
template void interpolation_construct_into<double>(std::span<const double>, const Extents&,
                                                   double, const QuantConfig&,
                                                   const InterpolationConfig&,
                                                   PredictorProduct&);
template PredictorProduct interpolation_construct<float>(std::span<const float>,
                                                         const Extents&, double,
                                                         const QuantConfig&,
                                                         const InterpolationConfig&);
template PredictorProduct interpolation_construct<double>(std::span<const double>,
                                                          const Extents&, double,
                                                          const QuantConfig&,
                                                          const InterpolationConfig&);
template sim::KernelCost interpolation_reconstruct<float>(std::span<const quant_t>,
                                                          std::span<const qdiff_t>,
                                                          std::span<const float>, int, bool,
                                                          const Extents&, double,
                                                          const QuantConfig&, std::span<float>);
template sim::KernelCost interpolation_reconstruct<double>(std::span<const quant_t>,
                                                           std::span<const qdiff_t>,
                                                           std::span<const float>, int, bool,
                                                           const Extents&, double,
                                                           const QuantConfig&, std::span<double>);

}  // namespace szp
