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

  // --- Header + predictor aux payload -------------------------------------
  ByteWriter w;
  archive::write_header(
      w, {wf, data.dtype(), ext, eb_kernel, cfg_.quant.capacity, cfg_.predictor});
  predictor.write_aux(w, ws);

  // --- Outlier section ----------------------------------------------------
  w.put_vector(prod.outliers.indices);
  w.put_vector(prod.outliers.values);

  // --- Quant-code payload --------------------------------------------------
  const pipeline::EncodeContext ectx{cfg_, ws.freq, st.original_bytes};
  pipeline::codec(wf).encode(quant, ectx, ws, w, st.pipeline);

  out.bytes = w.take();
  // Trailing integrity checksum over everything above.
  archive::append_crc32(out.bytes);
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

void Compressor::decompress(std::span<const std::uint8_t> archive, Decompressed& out,
                            Workspace& ws, const ReconstructConfig& recon) {
  decode_guard("szp archive", [&] {
    ByteReader r(archive::checked_body(archive));
    const archive::ArchiveHeader h = archive::read_header(r);
    const pipeline::PredictStage& predictor = pipeline::predict_stage(h.predictor);
    predictor.read_aux(r, ws);

    const std::size_t n = h.extents.count();
    sim::SparseVector<qdiff_t>& outliers = ws.product.outliers;
    r.set_segment("outliers");
    r.get_vector_into(outliers.indices);
    r.get_vector_into(outliers.values);
    if (outliers.indices.size() != outliers.values.size()) {
      throw DecodeError(DecodeErrorKind::kCorruptStream, "outliers",
                        "index/value stream size mismatch (" +
                            std::to_string(outliers.indices.size()) + " vs " +
                            std::to_string(outliers.values.size()) + ")");
    }
    // Every outlier index feeds a write into the field; validate against the
    // element count so a corrupt index cannot write outside the output
    // buffer, and require strictly increasing indices, as compression writes
    // them: reconstruction finds each row's outliers by search, and a
    // repeated index would add its residual twice.
    std::uint64_t next = 0;  // the smallest index the next entry may take
    for (const auto idx : outliers.indices) {
      if (idx >= n) {
        throw DecodeError(DecodeErrorKind::kCorruptStream, "outliers",
                          "outlier index " + std::to_string(idx) + " outside the " +
                              std::to_string(n) + "-element grid");
      }
      if (idx < next) {
        throw DecodeError(DecodeErrorKind::kCorruptStream, "outliers",
                          "outlier index " + std::to_string(idx) +
                              " does not follow the one before it");
      }
      next = idx + 1;
    }

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

Decompressed Compressor::decompress(std::span<const std::uint8_t> archive,
                                    const ReconstructConfig& recon) {
  Workspace ws;
  Decompressed out;
  decompress(archive, out, ws, recon);
  return out;
}

}  // namespace szp
