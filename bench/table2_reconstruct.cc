// Reproduces Table II: Lorenzo *reconstruction* throughput for 1/2/3-D —
// cuSZ's coarse chunk-serial kernel vs the naive shared-memory partial-sum
// proof of concept vs the optimized fused partial-sum kernel, modeled on
// V100 and A100 (plus measured host throughput of the simulated kernels).
//
// The modified-quantization ablation (residual-space outliers = branch-free
// fuse vs cuSZ's placeholder branch) is implicit in the coarse-vs-fine
// comparison.  The paper's per-thread sequentiality (8, §IV-B.3b) is not
// ablated here: the host partial sums walk whole rows, so it survives only
// as the constant kLorenzoSequentiality of the word-granular checker's lane
// model.
//
// Fields mirror the paper: HACC vx (1D), a CESM field (2D), Nyx
// baryon_density (3D).
#include "bench/bench_util.hh"
#include "baseline/cusz_ref.hh"

namespace {

using namespace szp;
using namespace szp::bench;

struct PaperRow {
  double cusz_v100, naive_v100, naive_a100, opt_v100, opt_a100;
};

void run_case(const char* label, const BenchField& f, const PaperRow& paper) {
  // Build archives once with both pipelines.
  CompressConfig pcfg;
  pcfg.eb = ErrorBound::relative(1e-4);
  pcfg.workflow = Workflow::kHuffman;
  const auto plus = Compressor(pcfg).compress(f.values, f.extents());

  baseline::CuszConfig bcfg;
  bcfg.eb = ErrorBound::relative(1e-4);
  const auto base = baseline::CuszCompressor(bcfg).compress(f.values, f.extents());

  const auto stage_of = [](const Decompressed& d) {
    return *d.pipeline.find("lorenzo_reconstruct");
  };

  const auto coarse_host = stage_of(baseline::CuszCompressor::decompress(base.bytes));
  const auto naive_host =
      stage_of(Compressor::decompress(plus.bytes, {ReconstructVariant::kNaivePartialSum}));
  const auto opt_host =
      stage_of(Compressor::decompress(plus.bytes, {ReconstructVariant::kOptimizedPartialSum}));
  // Modeled columns evaluate at the paper's full field size (the occupancy
  // and launch-overhead regime the published numbers were measured in).
  const auto coarse = at_paper_scale(coarse_host, f);
  const auto naive = at_paper_scale(naive_host, f);
  const auto opt = at_paper_scale(opt_host, f);

  println("%-12s %8.1f MB | %28s | %28s | %28s", label, f.mb(), "cuSZ coarse", "naive p-sum",
          "optimized p-sum");
  println("%-12s %11s | %8s %8s %9s | %8s %8s %9s | %8s %8s %9s", "", "", "host", "V100*",
          "paperV100", "host", "V100*", "paperV100", "host", "V100*", "paperV100");
  println("%-12s %11s | %8.1f %8.1f %9.1f | %8.1f %8.1f %9.1f | %8.1f %8.1f %9.1f", "", "",
          coarse_host.cpu_throughput_gbps(), modeled_gbps(sim::v100(), coarse), paper.cusz_v100,
          naive_host.cpu_throughput_gbps(), modeled_gbps(sim::v100(), naive), paper.naive_v100,
          opt_host.cpu_throughput_gbps(), modeled_gbps(sim::v100(), opt), paper.opt_v100);
  println("%-12s %11s | %8s %8.1f %9s | %8s %8.1f %9.1f | %8s %8.1f %9.1f", "", "(A100*)", "",
          modeled_gbps(sim::a100(), coarse), "-", "", modeled_gbps(sim::a100(), naive),
          paper.naive_a100, "", modeled_gbps(sim::a100(), opt), paper.opt_a100);
  println("%-12s modeled speedup over coarse: naive %0.1fx, optimized %0.1fx (V100)", "",
          modeled_gbps(sim::v100(), naive) / modeled_gbps(sim::v100(), coarse),
          modeled_gbps(sim::v100(), opt) / modeled_gbps(sim::v100(), coarse));
  rule();
}

}  // namespace

int main() {
  title("Table II — Lorenzo reconstruction throughput (GB/s), 1/2/3-D",
        "host = measured on the simulated-GPU substrate; V100*/A100* = roofline model; "
        "paper columns from Table II");

  run_case("1D (HACC)", load_field("HACC", "vx", 0.5), {16.8, 252.6, 219.8, 313.1, 504.5});
  run_case("2D (CESM)", load_field("CESM-ATM", "FSDSC", 0.6), {58.5, 198.4, 182.1, 254.2, 508.6});
  run_case("3D (Nyx)", load_field("Nyx", "baryon_density", 0.3),
           {29.7, 175.9, 147.9, 238.1, 405.1});
  return 0;
}
