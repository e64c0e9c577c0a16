#include "core/analysis/madogram.hh"

#include <cmath>
#include <random>

#include "sim/launch.hh"

namespace szp {

namespace {

template <typename T>
MadogramResult madogram_impl(std::span<const T> data, const MadogramConfig& cfg) {
  MadogramResult res;
  const std::size_t dmax = cfg.max_distance;
  res.abs_difference.assign(dmax, 0.0);
  res.binary_variance.assign(dmax, 0.0);
  if (data.size() < 2 || dmax == 0) return res;

  std::vector<std::uint64_t> count(dmax, 0);
  std::mt19937_64 rng(cfg.seed);
  std::uniform_int_distribution<std::size_t> pick_a(0, data.size() - 2);
  std::uniform_int_distribution<std::size_t> pick_d(1, dmax);

  for (std::size_t s = 0; s < cfg.samples; ++s) {
    const std::size_t a = pick_a(rng);
    const std::size_t d = pick_d(rng);
    if (a + d >= data.size()) continue;  // (a+d) must stay in the data range
    const double diff = std::abs(static_cast<double>(data[a]) - static_cast<double>(data[a + d]));
    res.abs_difference[d - 1] += diff;
    res.binary_variance[d - 1] += data[a] != data[a + d] ? 1.0 : 0.0;
    ++count[d - 1];
  }

  // Average each distance bin by its own sample count, then regress.
  double sum_rough = 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t bins = 0;
  for (std::size_t d = 0; d < dmax; ++d) {
    if (count[d] == 0) continue;
    res.abs_difference[d] /= static_cast<double>(count[d]);
    res.binary_variance[d] /= static_cast<double>(count[d]);
    sum_rough += res.binary_variance[d];
    const double x = static_cast<double>(d + 1);
    sx += x;
    sy += res.abs_difference[d];
    sxx += x * x;
    sxy += x * res.abs_difference[d];
    ++bins;
  }
  if (bins > 0) res.mean_roughness = sum_rough / static_cast<double>(bins);
  if (bins > 1) {
    const double nb = static_cast<double>(bins);
    const double denom = nb * sxx - sx * sx;
    if (denom != 0.0) res.slope = (nb * sxy - sx * sy) / denom;
  }
  return res;
}

}  // namespace

MadogramResult madogram(std::span<const float> data, const MadogramConfig& cfg) {
  return madogram_impl(data, cfg);
}

MadogramResult madogram(std::span<const std::uint16_t> data, const MadogramConfig& cfg) {
  return madogram_impl(data, cfg);
}

double adjacent_roughness(std::span<const std::uint16_t> data) {
  if (data.size() < 2) return 0.0;
  // Pair k compares data[k + 1] with data[k].
  const std::uint64_t changes = sim::reduce_blocks(
      data.size() - 1,
      [data](std::size_t begin, std::size_t end) {
        std::uint64_t part = 0;
        for (std::size_t k = begin; k < end; ++k) part += data[k + 1] != data[k] ? 1u : 0u;
        return part;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  return static_cast<double>(changes) / static_cast<double>(data.size() - 1);
}

}  // namespace szp
