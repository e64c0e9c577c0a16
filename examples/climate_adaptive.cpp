// Climate-archive scenario: compress a batch of CESM-ATM-like 2-D fields
// with the compressibility-aware adaptive workflow (the paper's §III).
//
// Climate model output mixes very smooth fields (radiative fluxes, aerosol
// optical depths) with rough ones (surface pressure, wind stress).  A fixed
// Huffman workflow caps every float field at 32x; the selector routes the
// smooth fields to RLE+VLE and keeps Huffman for the rest — per field, from
// the histogram alone, with no trial compression.
//
//   ./examples/climate_adaptive [axis_scale]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/compressor.hh"
#include "core/metrics.hh"
#include "data/catalog.hh"
#include "data/synthetic.hh"

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.2;
  const auto ds = szp::data::make_dataset("CESM-ATM", scale);

  std::printf("CESM-ATM-like archive, %zu fields, rel-eb 1e-2, adaptive workflow\n\n",
              ds.fields.size());
  std::printf("%-12s %10s %10s %9s %8s   %s\n", "field", "<b> est", "workflow", "ratio",
              "PSNR", "vs fixed-Huffman");
  for (int i = 0; i < 78; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);

  std::size_t total_in = 0, total_out = 0, total_fixed = 0;
  for (const auto& field : ds.fields) {
    const auto values = szp::data::generate_field(field.spec);

    szp::CompressConfig cfg;
    cfg.eb = szp::ErrorBound::relative(1e-2);
    cfg.workflow = szp::Workflow::kAuto;
    const auto adaptive = szp::Compressor(cfg).compress(values, field.spec.extents);

    cfg.workflow = szp::Workflow::kHuffman;
    const auto fixed = szp::Compressor(cfg).compress(values, field.spec.extents);

    const auto restored = szp::Compressor::decompress(adaptive.bytes);
    const auto m = szp::compare_fields(values, restored.data);

    total_in += adaptive.stats.original_bytes;
    total_out += adaptive.stats.compressed_bytes;
    total_fixed += fixed.stats.compressed_bytes;

    std::printf("%-12s %10.3f %10s %8.2fx %7.1fdB   %+6.1f%%\n", field.spec.name.c_str(),
                std::max(1.0, adaptive.stats.decision.stats.avg_bits_lower()),
                adaptive.stats.workflow_used == szp::Workflow::kHuffman ? "Huffman" : "RLE+VLE",
                adaptive.stats.ratio, m.psnr_db,
                100.0 * (adaptive.stats.ratio / fixed.stats.ratio - 1.0));
  }
  for (int i = 0; i < 78; ++i) std::fputc('-', stdout);
  std::printf("\narchive total: %.1f MB -> %.2f MB adaptive (%.2fx)  vs  %.2f MB fixed (%.2fx)\n",
              static_cast<double>(total_in) / 1e6, static_cast<double>(total_out) / 1e6,
              static_cast<double>(total_in) / static_cast<double>(total_out),
              static_cast<double>(total_fixed) / 1e6,
              static_cast<double>(total_in) / static_cast<double>(total_fixed));
  return 0;
}
