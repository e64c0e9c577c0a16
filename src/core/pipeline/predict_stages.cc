// szp — the built-in PredictStage implementations: Lorenzo (dual
// quantization + partial-sum reconstruction), block-wise linear regression,
// and multi-level interpolation.  Each stage transplants the corresponding
// branch of the former monolithic Compressor, byte-for-byte: the aux
// payloads (nothing / coefficients / level + anchors) and the PipelineReport
// stage names are pinned by the golden-archive tests.
#include "core/pipeline/builtin.hh"

#include <cstdint>
#include <vector>

#include "core/predictor/interpolation.hh"
#include "core/predictor/regression.hh"
#include "sim/timer.hh"

namespace szp::pipeline {

namespace {

/// Dense-outlier scatter shared by the regression and interpolation decode
/// paths (Lorenzo scatters into the fused residual field instead): re-zero
/// the n-element scratch, then add the outliers on top.
std::span<const qdiff_t> scatter_dense(const sim::SparseVector<qdiff_t>& outliers,
                                       std::size_t n, std::size_t payload_bytes,
                                       sim::device_vector<qdiff_t>& scratch,
                                       sim::PipelineReport& report) {
  sim::Timer t;
  scratch.assign(n, 0);
  sim::KernelCost cost;
  {
    sim::traffic::Scope scope;  // contract-derived volumes
    sim::scatter_add(outliers, std::span<qdiff_t>(scratch));
    cost = sim::scatter_cost(outliers.nnz(), sizeof(qdiff_t), sizeof(std::uint64_t));
    scope.apply(cost);
  }
  report.add({"scatter_outlier", payload_bytes, t.seconds(), cost});
  return scratch;
}

class LorenzoStage final : public PredictStage {
 public:
  [[nodiscard]] PredictorKind kind() const override { return PredictorKind::kLorenzo; }
  [[nodiscard]] const char* construct_stage() const override { return "lorenzo_construct"; }

  [[nodiscard]] PredictProduct construct(FieldView data, const Extents& ext, double eb_kernel,
                                         const CompressConfig& cfg,
                                         Workspace& ws) const override {
    return data.visit([&](auto elems) { return construct_impl(elems, ext, eb_kernel, cfg, ws); });
  }

  void write_aux(ByteWriter&, const Workspace&) const override {}  // no sidecar
  void read_aux(ByteReader&, PredictorAux&) const override {}

  void reconstruct(std::span<const quant_t> quant, const sim::SparseVector<qdiff_t>& outliers,
                   const PredictorAux&, const Extents& ext, double eb_abs,
                   const QuantConfig& qcfg, const ReconstructConfig& recon,
                   std::size_t payload_bytes, sim::device_vector<qdiff_t>& qprime,
                   Decompressed& out) const override {
    const std::size_t n = ext.count();
    const auto radius = static_cast<std::int32_t>(qcfg.capacity / 2);

    // --- Fuse quant ⊕ outlier (Algorithm 1 line 9) -------------------------
    // The fuse overwrites all n residuals, so a resize is enough.
    sim::Timer t;
    qprime.resize(n);
    // The streaming fuse dominates the traffic; the sparse scatter rides
    // along (outliers are rare), so the stage keeps the streaming access
    // profile.  Volumes for both launches come from their contracts.
    sim::KernelCost fuse_cost;
    {
      sim::traffic::Scope scope;
      fuse_quant_codes(quant, radius, qprime);
      sim::scatter_add(outliers, std::span<qdiff_t>(qprime));
      scope.apply(fuse_cost);
    }
    fuse_cost.flops = n + outliers.nnz();
    fuse_cost.parallel_items = n;
    fuse_cost.pattern = sim::AccessPattern::kCoalescedStreaming;
    fuse_cost.launches = 2;
    out.pipeline.add({"scatter_outlier", payload_bytes, t.seconds(), fuse_cost});

    // --- Partial-sum Lorenzo reconstruction --------------------------------
    t.reset();
    const sim::KernelCost recon_cost =
        out.write_field([&]<typename T>(std::vector<T>& field) {
          field.resize(n);
          return lorenzo_reconstruct_fused<T>(qprime, ext, eb_abs, field, recon);
        });
    out.pipeline.add({"lorenzo_reconstruct", payload_bytes, t.seconds(), recon_cost});
  }

 private:
  template <typename T>
  PredictProduct construct_impl(std::span<const T> data, const Extents& ext, double eb_kernel,
                                const CompressConfig& cfg, Workspace& ws) const {
    lorenzo_construct_into(data, ext, eb_kernel, cfg.quant, OutlierScheme::kResidual,
                           ConstructVariant::kOptimized, ws.lorenzo);
    return {std::span<const quant_t>(ws.lorenzo.quant.data(), ws.lorenzo.quant.size()),
            std::span<const qdiff_t>(ws.lorenzo.outlier_dense.data(),
                                     ws.lorenzo.outlier_dense.size()),
            ws.lorenzo.cost};
  }
};

class RegressionStage final : public PredictStage {
 public:
  [[nodiscard]] PredictorKind kind() const override { return PredictorKind::kRegression; }
  [[nodiscard]] const char* construct_stage() const override { return "regression_construct"; }

  [[nodiscard]] PredictProduct construct(FieldView data, const Extents& ext, double eb_kernel,
                                         const CompressConfig& cfg,
                                         Workspace& ws) const override {
    return data.visit([&](auto elems) { return construct_impl(elems, ext, eb_kernel, cfg, ws); });
  }

  void write_aux(ByteWriter& w, const Workspace& ws) const override {
    w.put_vector(ws.regression.coefficients);
  }
  void read_aux(ByteReader& r, PredictorAux& aux) const override {
    r.set_segment("coefficients");
    aux.coefficients = r.get_vector<float>();
  }

  void reconstruct(std::span<const quant_t> quant, const sim::SparseVector<qdiff_t>& outliers,
                   const PredictorAux& aux, const Extents& ext, double eb_abs,
                   const QuantConfig& qcfg, const ReconstructConfig&,
                   std::size_t payload_bytes, sim::device_vector<qdiff_t>& scratch,
                   Decompressed& out) const override {
    const std::size_t n = ext.count();
    const auto outlier_dense = scatter_dense(outliers, n, payload_bytes, scratch, out.pipeline);
    sim::Timer t;
    const sim::KernelCost recon_cost =
        out.write_field([&]<typename T>(std::vector<T>& field) {
          field.resize(n);
          return regression_reconstruct<T>(quant, outlier_dense, aux.coefficients, ext, eb_abs,
                                           qcfg, field);
        });
    out.pipeline.add({"regression_reconstruct", payload_bytes, t.seconds(), recon_cost});
  }

 private:
  template <typename T>
  PredictProduct construct_impl(std::span<const T> data, const Extents& ext, double eb_kernel,
                                const CompressConfig& cfg, Workspace& ws) const {
    regression_construct_into(data, ext, eb_kernel, cfg.quant, ws.regression);
    return {std::span<const quant_t>(ws.regression.quant.data(), ws.regression.quant.size()),
            std::span<const qdiff_t>(ws.regression.outlier_dense.data(),
                                     ws.regression.outlier_dense.size()),
            ws.regression.cost};
  }
};

class InterpolationStage final : public PredictStage {
 public:
  [[nodiscard]] PredictorKind kind() const override { return PredictorKind::kInterpolation; }
  [[nodiscard]] const char* construct_stage() const override {
    return "interpolation_construct";
  }

  [[nodiscard]] PredictProduct construct(FieldView data, const Extents& ext, double eb_kernel,
                                         const CompressConfig& cfg,
                                         Workspace& ws) const override {
    return data.visit([&](auto elems) { return construct_impl(elems, ext, eb_kernel, cfg, ws); });
  }

  void write_aux(ByteWriter& w, const Workspace& ws) const override {
    w.put<std::uint8_t>(static_cast<std::uint8_t>(ws.interp.level));
    w.put_vector(ws.interp.anchors);
  }
  void read_aux(ByteReader& r, PredictorAux& aux) const override {
    r.set_segment("coefficients");
    aux.level = r.get<std::uint8_t>();
    aux.coefficients = r.get_vector<float>();
  }

  void reconstruct(std::span<const quant_t> quant, const sim::SparseVector<qdiff_t>& outliers,
                   const PredictorAux& aux, const Extents& ext, double eb_abs,
                   const QuantConfig& qcfg, const ReconstructConfig&,
                   std::size_t payload_bytes, sim::device_vector<qdiff_t>& scratch,
                   Decompressed& out) const override {
    const std::size_t n = ext.count();
    const auto outlier_dense = scatter_dense(outliers, n, payload_bytes, scratch, out.pipeline);
    sim::Timer t;
    const sim::KernelCost recon_cost =
        out.write_field([&]<typename T>(std::vector<T>& field) {
          field.resize(n);
          return interpolation_reconstruct<T>(quant, outlier_dense, aux.coefficients, aux.level,
                                              true, ext, eb_abs, qcfg, field);
        });
    out.pipeline.add({"interpolation_reconstruct", payload_bytes, t.seconds(), recon_cost});
  }

 private:
  template <typename T>
  PredictProduct construct_impl(std::span<const T> data, const Extents& ext, double eb_kernel,
                                const CompressConfig& cfg, Workspace& ws) const {
    interpolation_construct_into(data, ext, eb_kernel, cfg.quant, InterpolationConfig{},
                                 ws.interp);
    return {std::span<const quant_t>(ws.interp.quant.data(), ws.interp.quant.size()),
            std::span<const qdiff_t>(ws.interp.outlier_dense.data(),
                                     ws.interp.outlier_dense.size()),
            ws.interp.cost};
  }
};

}  // namespace

std::unique_ptr<PredictStage> make_lorenzo_stage() { return std::make_unique<LorenzoStage>(); }
std::unique_ptr<PredictStage> make_regression_stage() {
  return std::make_unique<RegressionStage>();
}
std::unique_ptr<PredictStage> make_interpolation_stage() {
  return std::make_unique<InterpolationStage>();
}

}  // namespace szp::pipeline
