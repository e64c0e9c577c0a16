#include "core/compressor.hh"

#include <cmath>
#include <stdexcept>

#include "core/archive.hh"
#include "core/compressor_detail.hh"
#include "core/error.hh"
#include "core/metrics.hh"
#include "core/codec/codec.hh"
#include "core/pipeline/stage.hh"
#include "core/serialize.hh"
#include "sim/aligned.hh"
#include "sim/histogram.hh"
#include "sim/sparse.hh"
#include "sim/timer.hh"

namespace szp {

namespace {

/// Residual exactness precondition (DESIGN.md §7): prequantized magnitudes
/// must stay well inside qdiff_t so the 7-term 3-D Lorenzo combination
/// cannot overflow.
void validate_exactness(const ValueRange& range, double eb_abs) {
  const double max_abs = std::max(std::abs(range.min), std::abs(range.max));
  if (max_abs / (2.0 * eb_abs) >= static_cast<double>(1u << 27)) {
    throw std::invalid_argument(
        "Compressor: error bound too tight relative to the value magnitude "
        "(max|d|/2eb must be < 2^27 for exact integer reconstruction)");
  }
}

/// The archive of one compress() call.  The codec opens its section once
/// it knows the section's exact size; the archive is allocated then, once,
/// at its exact size — header, predictor aux, outlier section, the
/// section, and the CRC-32 tail — advised for huge pages
/// (sim::reserve_dense), and everything before the section is written.
/// seal() checks that the codec filled its section and stores the CRC.
class ArchiveSink final : public pipeline::SectionSink {
 public:
  ArchiveSink(const archive::ArchiveHeader& header, const pipeline::PredictStage& predictor,
              const Workspace& ws, std::vector<std::uint8_t>& bytes)
      : header_(header), predictor_(predictor), ws_(ws), bytes_(bytes) {}

  ByteWriter& open(std::size_t section_bytes) override {
    if (opened_) throw std::logic_error("Compressor: a codec opened its section twice");
    const auto prefix = [&](ByteWriter& w) {
      archive::write_header(w, header_);
      predictor_.write_aux(w, ws_);
      w.put_vector(ws_.product.outliers.indices);
      w.put_vector(ws_.product.outliers.values);
    };
    const std::size_t prefix_bytes = counted_size(prefix);
    const std::size_t total = prefix_bytes + section_bytes + archive::kCrcBytes;
    sim::reserve_dense(bytes_, total);
    bytes_.resize(total);
    const std::span<std::uint8_t> all(bytes_);
    ByteWriter head(all.first(prefix_bytes));
    prefix(head);
    section_ = ByteWriter(all.subspan(prefix_bytes, section_bytes));
    section_bytes_ = section_bytes;
    opened_ = true;
    return section_;
  }

  void seal() {
    if (!opened_ || section_.size() != section_bytes_) {
      throw std::logic_error("Compressor: a codec did not fill the section it opened");
    }
    archive::seal_crc32(bytes_);
  }

 private:
  const archive::ArchiveHeader& header_;
  const pipeline::PredictStage& predictor_;
  const Workspace& ws_;
  std::vector<std::uint8_t>& bytes_;
  ByteWriter section_{std::span<std::uint8_t>{}};
  std::size_t section_bytes_ = 0;
  bool opened_ = false;
};

}  // namespace

Compressed detail::compress(const CompressConfig& cfg_, FieldView data, const Extents& ext,
                            Workspace& ws, const ValueRange* range_in) {
  if (data.empty() || data.size() != ext.count()) {
    throw std::invalid_argument("Compressor::compress: data must be non-empty and match extents");
  }
  if (ext.rank < 1 || ext.rank > 3) {
    throw std::invalid_argument("Compressor::compress: rank must be 1, 2, or 3");
  }
  cfg_.quant.validate();

  Compressed out;
  CompressStats& st = out.stats;
  st.original_bytes = data.size_bytes();

  const ValueRange range = range_in != nullptr
                               ? *range_in
                               : data.visit([](auto elems) { return ValueRange::of(elems); });
  if (!range.finite) {
    throw std::invalid_argument("Compressor::compress: data contains non-finite values");
  }
  // The kernels run with a slightly tightened bound so the user-visible
  // guarantee |d - d'| < eb holds *strictly* even when prequantization
  // rounds a midpoint (error exactly eb) and the output value rounds to T.
  const double ulp = data.dtype() == DType::kFloat32 ? 0x1p-22 : 0x1p-51;
  const double eb_user = cfg_.eb.resolve(range.span());
  const double margin = std::max(eb_user * 1e-6, range.max_abs() * ulp);
  if (margin >= 0.5 * eb_user) {
    throw std::invalid_argument(
        "Compressor::compress: error bound is at the limit of the element type's "
        "precision for this value magnitude");
  }
  st.eb_abs = eb_user;
  const double eb_kernel = eb_user - margin;
  validate_exactness(range, eb_kernel);

  // --- Prediction + quantization, outlier gather --------------------------
  const pipeline::PredictStage& predictor = pipeline::predict_stage(cfg_.predictor);
  predictor.construct(data, ext, eb_kernel, cfg_.quant, ws, st.pipeline);
  const PredictorProduct& prod = ws.product;
  const std::span<const quant_t> quant(prod.quant);
  st.outlier_count = prod.outliers.nnz();

  // --- Histogram ---------------------------------------------------------
  sim::Timer t;
  sim::device_histogram_into(quant, cfg_.quant.capacity, ws.freq, ws.hist_priv);
  st.pipeline.add({"histogram", st.original_bytes, t.seconds(),
                   sim::histogram_stage_cost(data.size(), sizeof(quant_t), cfg_.quant.capacity)});

  // --- Workflow selection -------------------------------------------------
  Workflow wf = cfg_.workflow;
  st.decision = select_workflow(ws.freq, dtype_size(data.dtype()), cfg_.selector);
  if (wf == Workflow::kAuto) wf = st.decision.workflow;
  st.workflow_used = wf;
  if (wf == Workflow::kAuto) {
    throw std::logic_error("Compressor::compress: unresolved kAuto workflow");
  }

  // --- Archive: header, predictor aux, outliers, codec section, CRC -------
  // The codec encodes, then opens its section at its exact size, which
  // allocates the whole archive once; it writes its section in place.
  const archive::ArchiveHeader header{
      wf, data.dtype(), ext, eb_kernel, cfg_.quant.capacity, cfg_.predictor};
  ArchiveSink sink(header, predictor, ws, out.bytes);
  const pipeline::EncodeContext ectx{cfg_, ws.freq, st.original_bytes};
  pipeline::codec(wf).encode(quant, ectx, ws, sink, st.pipeline);
  sink.seal();
  st.compressed_bytes = out.bytes.size();
  st.ratio = compression_ratio(st.original_bytes, st.compressed_bytes);
  return out;
}

Compressed Compressor::compress(FieldView data, const Extents& ext) const {
  return compress(data, ext, cfg_);
}

Compressed Compressor::compress(FieldView data, const Extents& ext,
                                const CompressConfig& cfg) const {
  auto lease = pool_.acquire();
  return detail::compress(cfg, data, ext, *lease, nullptr);
}

Compressed Compressor::compress(FieldView data, const Extents& ext, const CompressConfig& cfg,
                                Workspace& ws) const {
  return detail::compress(cfg, data, ext, ws, nullptr);
}

Compressor::ArchiveInfo Compressor::inspect(std::span<const std::uint8_t> archive) {
  return decode_guard("szp archive", [&] {
    ByteReader r(archive::checked_body(archive));
    return archive::read_header(r);
  });
}

namespace {

/// Compressor::decompress over the body of an archive whose CRC-32 has
/// been verified.
void decompress_body(std::span<const std::uint8_t> body, Decompressed& out, Workspace& ws,
                     const ReconstructConfig& recon) {
  decode_guard("szp archive", [&] {
    ByteReader r(body);
    const archive::ArchiveHeader h = archive::read_header(r);
    const pipeline::PredictStage& predictor = pipeline::predict_stage(h.predictor);
    predictor.read_aux(r, ws);

    const std::size_t n = h.extents.count();
    archive::read_outliers(r, n, ws.product.outliers);

    out.extents = h.extents;
    out.dtype = h.dtype;
    out.pipeline.stages.clear();

    // --- Decode quant-codes -------------------------------------------------
    r.set_segment("quant-codes");
    const pipeline::DecodeContext dctx{n, n * dtype_size(h.dtype)};
    // The codec sizes the quant-codes to n only once its section holds
    // exactly n symbols, so a spliced header count cannot drive the
    // allocation.
    pipeline::codec(h.workflow).decode(r, dctx, ws.product.quant, out.pipeline);

    // --- Outliers + predictor reconstruction ---------------------------------
    predictor.reconstruct(h, recon, ws, out);
  });
}

}  // namespace

void Compressor::decompress(std::span<const std::uint8_t> archive, Decompressed& out,
                            Workspace& ws, const ReconstructConfig& recon) {
  decompress_body(archive::checked_body(archive), out, ws, recon);
}

void detail::decompress_verified(std::span<const std::uint8_t> archive, Decompressed& out,
                                 Workspace& ws) {
  decompress_body(archive.first(archive.size() - archive::kCrcBytes), out, ws, {});
}

Decompressed Compressor::decompress(std::span<const std::uint8_t> archive,
                                    const ReconstructConfig& recon) {
  Workspace ws;
  Decompressed out;
  decompress(archive, out, ws, recon);
  return out;
}

}  // namespace szp
