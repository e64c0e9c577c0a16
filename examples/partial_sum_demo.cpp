// Fig 3 companion: a visual walk-through of the paper's partial-sum
// theorem — first-order Lorenzo reconstruction == N-dimensional inclusive
// prefix sum — on a small 2-D example, printed step by step.
//
//   ./examples/partial_sum_demo
#include <cstdio>
#include <vector>

#include "core/predictor/lorenzo.hh"

namespace {

void print_grid(const char* label, const std::vector<szp::qdiff_t>& g, std::size_t w,
                std::size_t h) {
  std::printf("%s\n", label);
  for (std::size_t y = 0; y < h; ++y) {
    std::printf("    ");
    for (std::size_t x = 0; x < w; ++x) std::printf("%5d", g[y * w + x]);
    std::printf("\n");
  }
}

}  // namespace

int main() {
  constexpr std::size_t W = 6, H = 4;
  const szp::Extents ext = szp::Extents::d2(H, W);

  // A toy prequantized field (integers, as after Algorithm 1's prequant).
  const std::vector<szp::qdiff_t> field{
      3, 3, 4, 4, 5, 5,
      3, 4, 4, 5, 5, 6,
      4, 4, 5, 5, 6, 6,
      4, 5, 5, 6, 6, 7,
  };
  print_grid("prequantized field d°:", field, W, H);

  // Compression side: residuals δ = d° − lorenzo(d°), zero boundary.
  std::vector<szp::qdiff_t> resid(W * H);
  for (std::size_t y = 0; y < H; ++y) {
    for (std::size_t x = 0; x < W; ++x) {
      const auto at = [&](std::ptrdiff_t yy, std::ptrdiff_t xx) -> szp::qdiff_t {
        return (yy < 0 || xx < 0) ? 0 : field[static_cast<std::size_t>(yy) * W + static_cast<std::size_t>(xx)];
      };
      const auto yi = static_cast<std::ptrdiff_t>(y);
      const auto xi = static_cast<std::ptrdiff_t>(x);
      resid[y * W + x] =
          field[y * W + x] - (at(yi - 1, xi) + at(yi, xi - 1) - at(yi - 1, xi - 1));
    }
  }
  print_grid("\nLorenzo residuals q' (what actually gets encoded):", resid, W, H);

  // Decompression side, the paper's two 1-D passes.
  std::vector<szp::qdiff_t> pass_x = resid;
  for (std::size_t y = 0; y < H; ++y) {
    for (std::size_t x = 1; x < W; ++x) pass_x[y * W + x] += pass_x[y * W + x - 1];
  }
  print_grid("\nafter x-direction inclusive partial sum:", pass_x, W, H);

  std::vector<szp::qdiff_t> pass_xy = pass_x;
  for (std::size_t x = 0; x < W; ++x) {
    for (std::size_t y = 1; y < H; ++y) pass_xy[y * W + x] += pass_xy[(y - 1) * W + x];
  }
  print_grid("\nafter y-direction inclusive partial sum (reconstructed d°):", pass_xy, W, H);

  if (pass_xy != field) {
    std::fprintf(stderr, "ERROR: partial sums did not reproduce the field!\n");
    return 1;
  }
  std::printf("\npartial sums reproduce d° exactly — and each pass is embarrassingly\n"
              "parallel across rows/columns, unlike the serial raster-order Lorenzo\n"
              "reconstruction it replaces.\n");

  // Cross-check against the production kernel, which takes the residuals
  // as the archive carries them: quant-codes resid + radius, and the
  // residuals outside the radius as sparse outliers.
  const std::int32_t radius = szp::QuantConfig{}.radius();
  std::vector<szp::quant_t> quant(W * H);
  szp::sim::SparseVector<szp::qdiff_t> outliers;
  for (std::size_t i = 0; i < resid.size(); ++i) {
    const bool in = resid[i] > -radius && resid[i] < radius;
    quant[i] = static_cast<szp::quant_t>(in ? resid[i] + radius : radius);
    if (!in) {
      outliers.indices.push_back(i);
      outliers.values.push_back(resid[i]);
    }
  }
  std::vector<float> out(W * H);
  szp::lorenzo_reconstruct<float>(quant, outliers, ext, 0.5, radius, out);  // 2eb = 1
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] != static_cast<float>(field[i])) {
      std::fprintf(stderr, "ERROR: kernel mismatch at %zu\n", i);
      return 1;
    }
  }
  std::printf("production kernel (lorenzo_reconstruct) agrees.\n");
  return 0;
}
