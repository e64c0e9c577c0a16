// Reproduces Fig 2: smoothness analysis that drives the RLE decision.
//
//  (a) madogram of the prequantized data vs the quant-codes (abs-diff), and
//      the binary-variance roughness of quant-codes, against encoding
//      distance (CESM FSDSC-like field at rel-eb 1e-2, Dmax = 200);
//  (b) the smoothness <-> p1 <-> compression-ratio mapping across CESM
//      fields, which is how a CR threshold (e.g. 32x) translates into the
//      practical selector rule <b> <= 1.09.
//
// Also runs the selector-threshold ablation called out in DESIGN.md §6.
#include <algorithm>
#include <cmath>

#include "bench/bench_util.hh"
#include "core/analysis/madogram.hh"
#include "core/analysis/selector.hh"
#include "core/metrics.hh"
#include "core/predictor/lorenzo.hh"
#include "sim/histogram.hh"

namespace {

using namespace szp;
using namespace szp::bench;

std::vector<quant_t> quant_codes_of(const BenchField& f, double eb_rel) {
  const ValueRange range = ValueRange::of(f.values);
  const double eb_abs = ErrorBound::relative(eb_rel).resolve(range.span());
  auto lorenzo = lorenzo_construct(f.values, f.extents(), eb_abs, QuantConfig{});
  return {lorenzo.quant.begin(), lorenzo.quant.end()};
}

std::vector<float> prequant_of(const BenchField& f, double eb_rel) {
  const ValueRange range = ValueRange::of(f.values);
  const double eb_abs = ErrorBound::relative(eb_rel).resolve(range.span());
  std::vector<float> pq(f.values.size());
  for (std::size_t i = 0; i < pq.size(); ++i) {
    pq[i] = static_cast<float>(std::llround(static_cast<double>(f.values[i]) / (2.0 * eb_abs)));
  }
  return pq;
}

}  // namespace

int main() {
  title("Fig 2 — smoothness of prequantized data and quant-codes",
        "madogram / binary variance vs encoding distance; smoothness-p1-CR mapping (CESM-like)");

  // ---- Fig 2a: madogram vs distance on an FSDSC-like field ---------------
  const auto f = load_field("CESM-ATM", "FSDSC", 0.25);
  const double eb = 1e-2;
  const auto pq = prequant_of(f, eb);
  const auto qc = quant_codes_of(f, eb);

  MadogramConfig mcfg;
  mcfg.samples = 400000;
  const auto m_pq = madogram(std::span<const float>(pq), mcfg);
  const auto m_qc = madogram(std::span<const quant_t>(qc), mcfg);

  println("(a) FSDSC-like field at rel-eb 1e-2 (%zu elements)", f.values.size());
  println("%10s | %16s %16s | %18s", "distance", "prequant |diff|", "quant-code |diff|",
          "quant-code binvar");
  rule(' ', 0);
  rule();
  for (const std::size_t d : {1u, 2u, 5u, 10u, 20u, 50u, 100u, 150u, 200u}) {
    println("%10zu | %16.3f %16.3f | %18.4f", d, m_pq.abs_difference[d - 1],
            m_qc.abs_difference[d - 1], m_qc.binary_variance[d - 1]);
  }
  rule();
  println("prequant madogram slope %.4f vs quant-code slope %.4f "
          "(quant-codes are flatter => forward-encodable from any start)",
          m_pq.slope, m_qc.slope);
  println("quant-code mean roughness %.4f, smoothness %.4f", m_qc.mean_roughness,
          m_qc.smoothness());

  // ---- Fig 2b: smoothness <-> p1 <-> CR across fields ----------------------
  println("");
  println("(b) smoothness vs p1 vs measured CR per CESM-like field (rel-eb 1e-2)");
  println("%-12s | %10s %8s %8s | %9s %9s %9s | %s", "field", "smooth", "p1", "<b> est",
          "CR(VLE)", "CR(RLE)", "CR(R+V)", "selector");
  rule();

  const auto ds = data::make_dataset("CESM-ATM", 0.25);
  for (const char* name : {"FSDTOA", "ODV_dust4", "ODV_ocar1", "FSDSC", "SNOWHLND", "ICEFRAC",
                           "PSL", "TAUX", "PHIS", "PS"}) {
    BenchField bf;
    bf.info = data::find_field(ds, name);
    bf.values = data::generate_field(bf.info.spec);
    const auto codes = quant_codes_of(bf, eb);
    const auto m = madogram(std::span<const quant_t>(codes), mcfg);
    const auto freq = sim::device_histogram<quant_t>(codes, QuantConfig{}.capacity);
    const auto decision = select_workflow(freq);

    const auto ratio_of = [&](Workflow wf) {
      CompressConfig cfg;
      cfg.eb = ErrorBound::relative(eb);
      cfg.workflow = wf;
      return Compressor(cfg).compress(bf.values, bf.extents()).stats.ratio;
    };
    println("%-12s | %10.4f %8.4f %8.3f | %9.2f %9.2f %9.2f | %s", name, m.smoothness(),
            decision.stats.p1, std::max(1.0, decision.stats.avg_bits_lower()),
            ratio_of(Workflow::kHuffman),
            ratio_of(Workflow::kRle), ratio_of(Workflow::kRleVle),
            decision.workflow == Workflow::kHuffman ? "VLE" : "RLE(+VLE)");
  }
  rule();

  // ---- Ablation: selector threshold sweep ---------------------------------
  println("");
  println("Ablation — selector threshold <b>* sweep (fraction of 35 CESM fields sent to RLE,");
  println("and the mean CR the selected workflow achieves vs always-VLE / always-RLE+VLE):");
  println("%8s | %10s | %12s %12s %12s", "<b>*", "RLE share", "CR(selected)", "CR(all VLE)",
          "CR(all R+V)");
  rule();
  // Precompute both workflows' ratios and the histogram estimate per field;
  // the threshold sweep then only flips which precomputed CR is "selected".
  struct FieldEval {
    double est_bits, cr_vle, cr_rle_vle;
  };
  std::vector<FieldEval> evals;
  for (const auto& field : ds.fields) {
    BenchField bf;
    bf.info = field;
    bf.values = data::generate_field(field.spec);
    CompressConfig cfg;
    cfg.eb = ErrorBound::relative(eb);
    cfg.workflow = Workflow::kHuffman;
    const auto vle = Compressor(cfg).compress(bf.values, bf.extents());
    cfg.workflow = Workflow::kRleVle;
    const auto rv = Compressor(cfg).compress(bf.values, bf.extents());
    evals.push_back({std::max(1.0, vle.stats.decision.stats.avg_bits_lower()), vle.stats.ratio,
                     rv.stats.ratio});
  }
  for (const double threshold : {0.9, 1.0, 1.09, 1.2, 1.5, 2.0}) {
    int to_rle = 0;
    double cr_sel = 0.0, cr_vle = 0.0, cr_rv = 0.0;
    for (const auto& e : evals) {
      const bool rle = e.est_bits <= threshold;
      to_rle += rle ? 1 : 0;
      cr_sel += rle ? e.cr_rle_vle : e.cr_vle;
      cr_vle += e.cr_vle;
      cr_rv += e.cr_rle_vle;
    }
    const auto n = static_cast<double>(evals.size());
    println("%8.2f | %9.0f%% | %12.2f %12.2f %12.2f", threshold,
            100.0 * to_rle / n, cr_sel / n, cr_vle / n, cr_rv / n);
  }
  rule();
  println("The 1.09 threshold is where RLE routing switches on for the smooth cohort.  Note the");
  println("paper's rule is throughput-aware: always-RLE+VLE can post a higher mean CR, but it");
  println("spends the extra VLE stages on rough fields for marginal gain (Table IV's PS row).");
  return 0;
}
