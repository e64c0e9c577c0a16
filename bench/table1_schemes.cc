// Reproduces Table I: averaged compression ratios of schemes
//   qg  — quant-codes fed byte-wise to a generic LZ+entropy coder (gzip
//         stand-in; the "suboptimal single-byte interpretation"),
//   qh  — multi-byte Huffman over quant-codes (cuSZ Workflow-Huffman),
//   qhg — gzip appended after qh (the CPU-SZ-grade reference ceiling),
// on HACC / Hurricane / CESM / Nyx at rel-eb 1e-2 / 1e-3 / 1e-4.
//
// Expected shape (paper Table I): qhg >= qh everywhere; the qhg/qh gap
// widens as the bound loosens (smoother quant-codes leave more repeated
// patterns on the table); qg under-performs qh at loose bounds because the
// byte-wise split of multi-byte symbols hides the symbol distribution.
#include <map>

#include "bench/bench_util.hh"
#include "core/metrics.hh"
#include "core/predictor/lorenzo.hh"
#include "lossless/lzh.hh"
#include "lossless/lzr.hh"

namespace {

using namespace szp;
using namespace szp::bench;

struct SchemeRatios {
  double qg = 0.0, qh = 0.0, qhg = 0.0, qhz = 0.0;
};

SchemeRatios measure(const BenchField& f, double eb_rel) {
  SchemeRatios r;
  const auto orig_bytes = static_cast<double>(f.bytes());

  // qh: the full Workflow-Huffman archive.
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(eb_rel);
  cfg.workflow = Workflow::kHuffman;
  const auto qh = Compressor(cfg).compress(f.values, f.extents());
  r.qh = qh.stats.ratio;

  // qhg: gzip-substitute over the qh archive.
  const auto qhg = lossless::lzh_compress(qh.bytes);
  r.qhg = orig_bytes / static_cast<double>(qhg.size());

  // qhz: Zstd-substitute (LZ77+rANS) over the qh archive — what cuSZ's
  // actual Step-9 does on the host.
  const auto qhz = lossless::lzr_compress(qh.bytes);
  r.qhz = orig_bytes / static_cast<double>(qhz.size());

  // qg: quant-codes interpreted as raw bytes into the generic coder
  // (plus the outliers stored raw, as a real qg archive would carry them).
  const ValueRange range = ValueRange::of(f.values);
  const double eb_abs = ErrorBound::relative(eb_rel).resolve(range.span());
  const auto lorenzo = lorenzo_construct(f.values, f.extents(), eb_abs, QuantConfig{});
  const auto* qbytes = reinterpret_cast<const std::uint8_t*>(lorenzo.quant.data());
  const auto qg = lossless::lzh_compress(
      std::span<const std::uint8_t>(qbytes, lorenzo.quant.size() * sizeof(quant_t)));
  const std::size_t outlier_bytes = lorenzo.outliers.nnz() * 12u;
  r.qg = orig_bytes / static_cast<double>(qg.size() + outlier_bytes);
  return r;
}

}  // namespace

int main() {
  title("Table I — compression ratios of qg / qh / qhg schemes",
        "q = dual-quant Lorenzo, h = multi-byte Huffman, g = LZ77+Huffman (gzip stand-in); "
        "ratios are averaged per dataset (synthetic SDRBench stand-ins)");

  // (dataset, fields, axis scale) — a representative subset per dataset;
  // the paper averages 109 fields, we average these.
  const std::vector<std::tuple<std::string, std::vector<std::string>, double>> plan{
      {"HACC", {"x", "vx", "vy"}, 0.12},
      {"Hurricane", {"CLOUDf48", "Pf48", "Uf48"}, 0.25},
      {"CESM-ATM", {"FSDSC", "PS", "ICEFRAC", "ODV_dust4"}, 0.25},
      {"Nyx", {"baryon_density", "temperature", "velocity_x"}, 0.2},
  };
  const std::vector<double> ebs{1e-2, 1e-3, 1e-4};

  // Paper Table I values for reference (per dataset, per eb): {qg, qh, qhg}.
  const std::map<std::string, std::map<double, SchemeRatios>> paper{
      {"HACC",
       {{1e-2, {22.72, 20.33, 31.02}}, {1e-3, {7.58, 9.51, 10.01}}, {1e-4, {3.89, 4.82, 5.01}}}},
      {"Hurricane",
       {{1e-2, {43.67, 24.80, 58.76}}, {1e-3, {18.41, 17.04, 24.65}}, {1e-4, {10.31, 9.76, 12.99}}}},
      {"CESM-ATM",
       {{1e-2, {61.21, 24.24, 75.50}}, {1e-3, {20.78, 18.38, 28.13}}, {1e-4, {9.98, 10.29, 12.50}}}},
      {"Nyx",
       {{1e-2, {118.94, 30.24, 164.39}}, {1e-3, {28.25, 23.92, 40.17}}, {1e-4, {12.87, 15.27, 17.95}}}},
  };

  println("%-12s %-8s | %8s %8s %8s %8s | %8s %8s | %26s", "dataset", "rel-eb", "qg", "qh",
          "qhg", "qhz", "qhg/qh", "qg/qh", "paper (qg / qh / qhg)");
  rule();

  for (const auto& [dataset, fields, scale] : plan) {
    for (const double eb : ebs) {
      SchemeRatios avg;
      for (const auto& name : fields) {
        const auto f = load_field(dataset, name, scale);
        const auto r = measure(f, eb);
        avg.qg += r.qg;
        avg.qh += r.qh;
        avg.qhg += r.qhg;
        avg.qhz += r.qhz;
      }
      const auto n = static_cast<double>(fields.size());
      avg.qg /= n;
      avg.qh /= n;
      avg.qhg /= n;
      avg.qhz /= n;
      const auto& ref = paper.at(dataset).at(eb);
      println("%-12s %-8.0e | %8.2f %8.2f %8.2f %8.2f | %7.2fx %7.2fx | %8.2f %8.2f %8.2f",
              dataset.c_str(), eb, avg.qg, avg.qh, avg.qhg, avg.qhz, avg.qhg / avg.qh,
              avg.qg / avg.qh, ref.qg, ref.qh, ref.qhg);
    }
    rule();
  }
  println("Shape checks: qhg >= qh at every point; qhg/qh gap widens from 1e-4 to 1e-2.");
  return 0;
}
