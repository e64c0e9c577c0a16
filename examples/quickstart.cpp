// Quickstart: compress a 3-D field with an error bound, decompress it, and
// verify the bound — the 60-second tour of the szp public API.
//
//   ./examples/quickstart [rel_eb]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/compressor.hh"
#include "core/metrics.hh"
#include "data/synthetic.hh"

int main(int argc, char** argv) {
  const double rel_eb = argc > 1 ? std::atof(argv[1]) : 1e-3;

  // 1. Get a field.  Here: a synthetic 128x128x128 "hydrodynamics" block;
  //    in your application this is your simulation output.
  szp::data::FieldSpec spec;
  spec.dataset = "quickstart";
  spec.name = "density";
  spec.extents = szp::Extents::d3(128, 128, 128);
  spec.step_rel = 5e-4;
  spec.impulse_density = 0.01;
  const std::vector<float> field = szp::data::generate_field(spec);

  // 2. Configure: a value-range-relative error bound, automatic workflow
  //    selection (Huffman vs RLE, decided from the quant-code histogram).
  szp::CompressConfig cfg;
  cfg.eb = szp::ErrorBound::relative(rel_eb);
  cfg.workflow = szp::Workflow::kAuto;

  // 3. Compress.
  const szp::Compressor compressor(cfg);
  const auto compressed = compressor.compress(field, spec.extents);

  std::printf("compressed %zu MB -> %zu KB  (ratio %.2fx)\n",
              field.size() * sizeof(float) / (1u << 20), compressed.bytes.size() >> 10,
              compressed.stats.ratio);
  std::printf("workflow: %s (selector estimated <b> = %.3f bits/symbol, p1 = %.3f)\n",
              compressed.stats.workflow_used == szp::Workflow::kHuffman ? "Huffman" : "RLE+VLE",
              std::max(1.0, compressed.stats.decision.stats.avg_bits_lower()),
              compressed.stats.decision.stats.p1);
  std::printf("outliers: %zu of %zu values (%.4f%%)\n", compressed.stats.outlier_count,
              field.size(),
              100.0 * static_cast<double>(compressed.stats.outlier_count) /
                  static_cast<double>(field.size()));

  // 4. Decompress (the archive is self-describing) and verify the bound.
  const auto restored = szp::Compressor::decompress(compressed.bytes);
  const auto metrics = szp::compare_fields(field, restored.data);
  std::printf("max |error| = %.3g  (bound %.3g)  PSNR = %.2f dB\n", metrics.max_abs_error,
              compressed.stats.eb_abs, metrics.psnr_db);

  if (metrics.max_abs_error >= compressed.stats.eb_abs) {
    std::fprintf(stderr, "ERROR: error bound violated!\n");
    return 1;
  }
  std::printf("error bound honored.\n");
  return 0;
}
