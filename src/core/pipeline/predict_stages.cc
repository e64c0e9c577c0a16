// szp — the three PredictStage implementations and their table: Lorenzo
// (dual quantization + partial-sum reconstruction), block-wise linear
// regression, and multi-level interpolation.  The aux payloads (nothing /
// coefficients / level + anchors) and the PipelineReport stage names are
// pinned by the golden-archive tests.
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline/stage.hh"
#include "core/predictor/interpolation.hh"
#include "core/predictor/regression.hh"
#include "sim/timer.hh"

namespace szp::pipeline {

namespace {

/// Uncompressed size of the field a header describes: the throughput
/// denominator of the decode-side report entries.
std::size_t payload_bytes(const Compressor::ArchiveInfo& h) {
  return h.extents.count() * dtype_size(h.dtype);
}

/// The decode-side scatter entry of regression and interpolation: their
/// reconstruct kernels add the outliers as they rebuild each value, so it
/// carries only the modeled cost of the paper's scatter.
void report_scatter(const Compressor::ArchiveInfo& h, const Workspace& ws, Decompressed& out) {
  out.pipeline.add({"scatter_outlier", payload_bytes(h), 0.0,
                    outlier_scatter_cost(ws.product.outliers.nnz())});
}

class LorenzoStage final : public PredictStage {
 public:
  [[nodiscard]] const char* construct_stage() const override { return "lorenzo_construct"; }

  void construct(FieldView data, const Extents& ext, double eb_kernel, const QuantConfig& quant,
                 Workspace& ws, sim::PipelineReport& report) const override {
    sim::Timer t;
    data.visit([&](auto elems) {
      lorenzo_construct_into(elems, ext, eb_kernel, quant, OutlierScheme::kResidual,
                             ConstructVariant::kOptimized, ws.product);
    });
    report.add({construct_stage(), data.size_bytes(), t.seconds(), ws.product.cost});
    t.reset();
    const sim::KernelCost gather_cost = lorenzo_gather_outliers(ext, kLorenzoRun, ws.product);
    report.add({"gather_outlier", data.size_bytes(), t.seconds(), gather_cost});
  }

  void write_aux(ByteWriter&, const Workspace&) const override {}  // no sidecar
  void read_aux(ByteReader&, Workspace&) const override {}

  void reconstruct(const Compressor::ArchiveInfo& h, const ReconstructConfig& recon,
                   Workspace& ws, Decompressed& out) const override {
    const PredictorProduct& p = ws.product;
    // The outliers are added inside the reconstruct blocks, so this entry
    // carries only the modeled cost of the paper's fuse + scatter pair.
    out.pipeline.add({"scatter_outlier", payload_bytes(h), 0.0,
                      lorenzo_fuse_cost(h.extents.count(), p.outliers.nnz())});
    sim::Timer t;
    const sim::KernelCost recon_cost =
        out.write_field(h.extents.count(), [&]<typename T>(std::vector<T>& field) {
          return lorenzo_reconstruct<T>(p.quant, p.outliers, h.extents, h.eb_abs,
                                        QuantConfig{h.capacity}.radius(), field, recon);
        });
    out.pipeline.add({"lorenzo_reconstruct", payload_bytes(h), t.seconds(), recon_cost});
  }
};

class RegressionStage final : public PredictStage {
 public:
  [[nodiscard]] const char* construct_stage() const override { return "regression_construct"; }

  void construct(FieldView data, const Extents& ext, double eb_kernel, const QuantConfig& quant,
                 Workspace& ws, sim::PipelineReport& report) const override {
    sim::Timer t;
    data.visit([&](auto elems) {
      regression_construct_into(elems, ext, eb_kernel, quant, ws.product);
    });
    report.add({construct_stage(), data.size_bytes(), t.seconds(), ws.product.cost});
    t.reset();
    const sim::KernelCost gather_cost = lorenzo_gather_outliers(ext, 1, ws.product);
    report.add({"gather_outlier", data.size_bytes(), t.seconds(), gather_cost});
  }

  void write_aux(ByteWriter& w, const Workspace& ws) const override {
    w.put_vector(ws.product.coefficients);
  }
  void read_aux(ByteReader& r, Workspace& ws) const override {
    r.set_segment("coefficients");
    r.get_vector_into(ws.product.coefficients);
  }

  void reconstruct(const Compressor::ArchiveInfo& h, const ReconstructConfig&, Workspace& ws,
                   Decompressed& out) const override {
    report_scatter(h, ws, out);
    sim::Timer t;
    const PredictorProduct& p = ws.product;
    const sim::KernelCost recon_cost =
        out.write_field(h.extents.count(), [&]<typename T>(std::vector<T>& field) {
          return regression_reconstruct<T>(p.quant, p.outliers, p.coefficients, h.extents,
                                           h.eb_abs, QuantConfig{h.capacity}, field);
        });
    out.pipeline.add({"regression_reconstruct", payload_bytes(h), t.seconds(), recon_cost});
  }
};

class InterpolationStage final : public PredictStage {
 public:
  [[nodiscard]] const char* construct_stage() const override {
    return "interpolation_construct";
  }

  void construct(FieldView data, const Extents& ext, double eb_kernel, const QuantConfig& quant,
                 Workspace& ws, sim::PipelineReport& report) const override {
    sim::Timer t;
    data.visit([&](auto elems) {
      interpolation_construct_into(elems, ext, eb_kernel, quant, ws.product);
    });
    report.add({construct_stage(), data.size_bytes(), t.seconds(), ws.product.cost});
    // The construct collects the section itself, so this entry carries only
    // the modeled cost of the paper's gather.
    report.add({"gather_outlier", data.size_bytes(), 0.0,
                outlier_gather_cost(ext.count(), ws.product.outliers.nnz())});
  }

  void write_aux(ByteWriter& w, const Workspace& ws) const override {
    w.put<std::uint8_t>(static_cast<std::uint8_t>(ws.product.level));
    w.put_vector(ws.product.coefficients);
  }
  void read_aux(ByteReader& r, Workspace& ws) const override {
    r.set_segment("coefficients");
    ws.product.level = r.get<std::uint8_t>();
    r.get_vector_into(ws.product.coefficients);
  }

  void reconstruct(const Compressor::ArchiveInfo& h, const ReconstructConfig&, Workspace& ws,
                   Decompressed& out) const override {
    report_scatter(h, ws, out);
    sim::Timer t;
    const PredictorProduct& p = ws.product;
    const sim::KernelCost recon_cost =
        out.write_field(h.extents.count(), [&]<typename T>(std::vector<T>& field) {
          return interpolation_reconstruct<T>(p.quant, p.outliers, p.coefficients, p.level,
                                              h.extents, h.eb_abs, QuantConfig{h.capacity},
                                              field);
        });
    out.pipeline.add({"interpolation_reconstruct", payload_bytes(h), t.seconds(), recon_cost});
  }
};

}  // namespace

const PredictStage& predict_stage(PredictorKind kind) {
  static const LorenzoStage lorenzo;
  static const RegressionStage regression;
  static const InterpolationStage interpolation;
  // Rows in PredictorKind tag order.
  static const std::array<const PredictStage*, 3> table{&lorenzo, &regression, &interpolation};
  const auto tag = static_cast<std::size_t>(kind);
  if (tag >= table.size()) {
    throw std::logic_error("no predictor stage for tag " + std::to_string(tag));
  }
  return *table[tag];
}

}  // namespace szp::pipeline
