#include "data/synthetic.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/eb.hh"
#include "sim/launch.hh"

namespace szp::data {

namespace {

/// SplitMix64: cheap, stateless, index-addressable PRNG so generation
/// parallelizes without per-thread stream bookkeeping.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double uniform01(std::uint64_t x) {
  return static_cast<double>(splitmix64(x) >> 11) * 0x1.0p-53;
}

/// One octave of value noise: a coarse lattice of white noise, either
/// linearly interpolated (smooth texture; per-step gradient is
/// ~(2/3)·amplitude/upsample) or piecewise-constant (structural patches:
/// zero gradient inside a patch, a jump only at patch boundaries).
///
/// The split matters for scale fidelity: the *structure* octave gives the
/// field an O(amplitude) value range at any grid size without contributing
/// per-sample gradient, so the texture octave alone controls the
/// quant-code statistics — making them invariant under the axis_scale the
/// benches use to fit the host (see FieldSpec docs).
class Octave {
 public:
  Octave(const Extents& ext, double upsample, double amplitude, bool nearest,
         std::uint64_t seed)
      : amplitude_(amplitude), inv_u_(1.0 / upsample), nearest_(nearest), seed_(seed) {
    cx_ = static_cast<std::size_t>(std::ceil(static_cast<double>(ext.nx) * inv_u_)) + 2;
    cy_ = static_cast<std::size_t>(std::ceil(static_cast<double>(ext.ny) * inv_u_)) + 2;
  }

  [[nodiscard]] double sample(std::size_t z, std::size_t y, std::size_t x) const {
    const double fx = static_cast<double>(x) * inv_u_;
    const double fy = static_cast<double>(y) * inv_u_;
    const double fz = static_cast<double>(z) * inv_u_;
    const auto ix = static_cast<std::size_t>(fx);
    const auto iy = static_cast<std::size_t>(fy);
    const auto iz = static_cast<std::size_t>(fz);

    if (nearest_) {
      return amplitude_ * lattice(iz, iy, ix);
    }

    const double tx = fx - static_cast<double>(ix);
    const double ty = fy - static_cast<double>(iy);
    const double tz = fz - static_cast<double>(iz);
    double c[2][2][2];
    for (int dz = 0; dz < 2; ++dz)
      for (int dy = 0; dy < 2; ++dy)
        for (int dx = 0; dx < 2; ++dx) c[dz][dy][dx] = lattice(iz + dz, iy + dy, ix + dx);
    const auto lerp = [](double a, double b, double t) { return a + (b - a) * t; };
    const double y0 = lerp(lerp(c[0][0][0], c[0][0][1], tx), lerp(c[0][1][0], c[0][1][1], tx), ty);
    const double y1 = lerp(lerp(c[1][0][0], c[1][0][1], tx), lerp(c[1][1][0], c[1][1][1], tx), ty);
    return amplitude_ * lerp(y0, y1, tz);
  }

 private:
  [[nodiscard]] double lattice(std::size_t z, std::size_t y, std::size_t x) const {
    const std::uint64_t key = (z * cy_ + y) * cx_ + x;
    return 2.0 * uniform01(seed_ ^ (key * 0x2545f4914f6cdd1dull)) - 1.0;
  }

  double amplitude_;
  double inv_u_;
  bool nearest_;
  std::uint64_t seed_;
  std::size_t cx_, cy_;
};

}  // namespace

std::uint64_t field_seed(const std::string& dataset, const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](char c) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  };
  for (const char c : dataset) mix(c);
  mix('/');
  for (const char c : name) mix(c);
  return h;
}

std::vector<float> generate_field(const FieldSpec& spec) {
  const Extents& ext = spec.extents;
  const std::size_t n = ext.count();
  std::vector<float> out(n);

  const std::uint64_t seed =
      spec.seed != 0 ? spec.seed : field_seed(spec.dataset, spec.name);

  // Structure: piecewise-constant patches, ~5 per axis, amplitude 1 — the
  // field's O(1) value range at any grid size, with no per-sample gradient.
  const double dim_max = static_cast<double>(std::max({ext.nx, ext.ny, ext.nz}));
  const Octave structure(ext, std::max(2.0, dim_max / 5.0), 1.0, /*nearest=*/true, seed ^ 0xA);

  // Texture: fixed 16-sample upsample; amplitude derived from step_rel so
  // the per-step gradient is step_rel of the ~2-wide structural range
  // regardless of the grid size: (2/3)·amp/16 = 2·step_rel.
  const double span_est = 2.0;
  const double texture_amp = spec.step_rel * span_est * 16.0 * 1.5;
  const Octave texture(ext, 16.0, texture_amp, /*nearest=*/false, seed ^ 0xB);

  // Pass 1: base field + realized range (plateau threshold and impulse
  // magnitude are set off the realized span so no realization collapses).
  const ValueRange base = sim::reduce_blocks(
      n,
      [&](std::size_t begin, std::size_t end) {
        ValueRange part{std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
        for (std::size_t idx = begin; idx < end; ++idx) {
          const std::size_t x = idx % ext.nx;
          const std::size_t y = (idx / ext.nx) % ext.ny;
          const std::size_t z = idx / (ext.nx * ext.ny);
          const double v = structure.sample(z, y, x) + texture.sample(z, y, x);
          part.min = std::min(part.min, v);
          part.max = std::max(part.max, v);
          out[idx] = static_cast<float>(v);
        }
        return part;
      },
      ValueRange::merge);

  const double base_span = std::max(base.span(), 1e-9);
  const double plateau_level = base.min + spec.plateau_fraction * base_span;
  const double impulse_abs = spec.impulse_scale * base_span;

  // Pass 2: localized jumps (fronts, shocks, point sources), then the
  // plateau clamp (after, so plateaus stay exactly constant, as real
  // land/ice masks are).
  sim::launch_blocks(n, [&](std::size_t idx) {
    double v = out[idx];
    if (spec.impulse_density > 0.0) {
      const std::uint64_t r = splitmix64(seed ^ (idx * 0x9e3779b97f4a7c15ull));
      if (uniform01(r) < spec.impulse_density) {
        // Fixed magnitude, random sign: impulses land on a couple of quant
        // codes (as real fields' localized features do) instead of smearing
        // the histogram across many symbols.
        const double sign = (r & 1) != 0 ? 1.0 : -1.0;
        v += sign * impulse_abs;
      }
    }
    if (spec.plateau_fraction > 0.0 && v < plateau_level) v = plateau_level;
    out[idx] = static_cast<float>(spec.value_offset + spec.value_scale * v);
  });
  return out;
}

}  // namespace szp::data
