#include "core/analysis/selector.hh"

#include <algorithm>
#include <cmath>

#include "core/codec/codec.hh"
#include "sim/device.hh"
#include "sim/perf_model.hh"

namespace szp {

WorkflowDecision select_workflow(std::span<const std::uint64_t> freq,
                                 std::size_t bytes_per_value, const SelectorConfig& cfg) {
  WorkflowDecision d;
  d.stats = entropy_stats(freq);
  const double value_bits = static_cast<double>(bytes_per_value) * 8.0;

  // --- Rank every codec ---------------------------------------------------
  const sim::DeviceSpec& dev = sim::v100();
  const double n = std::max(1.0, static_cast<double>(d.stats.total));

  pipeline::CodecSignals sig;
  sig.stats = d.stats;
  sig.freq = freq;
  sig.n = d.stats.total;
  sig.bytes_per_value = bytes_per_value;

  d.scores.reserve(pipeline::codecs().size());
  for (const pipeline::LosslessCodec* codec : pipeline::codecs()) {
    const pipeline::CodecEstimate est = codec->estimate(sig);
    CodecScore s;
    s.workflow = codec->id();
    s.name = codec->name();
    s.est_bits_per_symbol = est.payload_bits_per_symbol;
    s.est_fixed_bytes = est.fixed_bytes;
    // Projected CR of the quant-code section: payload plus the fixed
    // books/tables/chunk-metadata overhead (which is what sinks the
    // heavyweight codecs on small slabs).
    const double section_bits = est.payload_bits_per_symbol * n + est.fixed_bytes * 8.0;
    s.est_ratio = value_bits * n / std::max(1.0, section_bits);
    s.modeled_encode_seconds = sim::modeled_seconds(dev, est.encode_cost);
    s.modeled_decode_seconds = sim::modeled_seconds(dev, est.decode_cost);
    d.scores.push_back(s);
  }

  double best_ratio = 0.0;
  double best_time = 0.0;
  for (const auto& s : d.scores) {
    best_ratio = std::max(best_ratio, s.est_ratio);
    if (best_time == 0.0 || s.modeled_encode_seconds < best_time) {
      best_time = s.modeled_encode_seconds;
    }
  }

  // score = w_r * ratio/best_ratio + w_t * best_time/time — both terms are
  // in [0, 1] and equal 1 for the best candidate on that axis, so only the
  // relative weights matter.
  for (auto& s : d.scores) {
    const double ratio_norm = best_ratio > 0.0 ? s.est_ratio / best_ratio : 0.0;
    const double time_norm =
        s.modeled_encode_seconds > 0.0 ? best_time / s.modeled_encode_seconds : 1.0;
    s.score = cfg.ratio_weight * ratio_norm + cfg.throughput_weight * time_norm;
  }

  // Rank best-first with a deterministic tie-break on the workflow tag,
  // except that RLE+VLE ranks before plain RLE on an exact score tie (the
  // paper's preference).
  std::stable_sort(d.scores.begin(), d.scores.end(), [](const CodecScore& a,
                                                        const CodecScore& b) {
    if (a.score != b.score) return a.score > b.score;
    const auto rank = [](const CodecScore& s) {
      if (s.workflow == Workflow::kRleVle) return -1;
      if (s.workflow == Workflow::kRle) return 1;
      return static_cast<int>(s.workflow);
    };
    return rank(a) < rank(b);
  });

  d.workflow = d.scores.empty() ? Workflow::kHuffman : d.scores.front().workflow;
  return d;
}

}  // namespace szp

