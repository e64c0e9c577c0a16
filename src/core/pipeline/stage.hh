// szp — the predictor half of the stage-typed pipeline.
//
// The paper's Fig. 1 pipeline is one fixed composition:
//
//   prequant+predict → gather outliers → histogram → selector →
//   {Huffman | RLE [+VLE] | rANS | LZ family}  (and the mirrored decode chain)
//
// cuSZ keeps the predictor and the codec swappable through stage interfaces
// (Tian et al., PACT'20).  Here each predictor is a PredictStage and each
// quant-code codec a LosslessCodec (core/codec/codec.hh), and two fixed
// tables indexed by the tags the archive header already stores pick them:
// predict_stage(PredictorKind) below and codec(Workflow) in codec.hh.  The
// Compressor, the streaming layer, the CLI and the benches all reach the
// stages through those tables.  Adding a predictor is: implement
// PredictStage, allot the next PredictorKind tag (the header stores it, so
// tags are append-only) and give it its row in predict_stage().
//
// Contract highlights:
//   * Stages serialize *directly* after the fixed archive header
//     (core/archive.hh) in a layout they own; the encode and decode halves
//     of one workflow must agree byte-for-byte.
//   * Stages are dtype-generic: construct() takes a FieldView and visits it
//     once into the stage's typed kernel; reconstruct() sizes and fills the
//     field through Decompressed::write_field().
//   * Stages report their work as PipelineReport entries under names
//     ("lorenzo_construct", "scatter_outlier", ...) that tests and the perf
//     benches pin.
//   * Both directions work in the Workspace's one predictor product
//     (Workspace::product, core/predictor/product.hh) through
//     capacity-preserving fills, so repeated compression and decompression
//     through Lorenzo or regression are allocation-free at steady state.
//     Interpolation still allocates its n-float lattice of reconstructed
//     values, and its visit-ordered outlier list, on every call.
#pragma once

#include "core/compressor.hh"
#include "core/serialize.hh"
#include "core/workspace.hh"

namespace szp::pipeline {

/// One prediction model: the construct half of compression and the
/// reconstruct half of decompression, plus its aux-payload serialization.
class PredictStage {
 public:
  virtual ~PredictStage() = default;

  /// PipelineReport entry name of the construct pass (pinned by tests).
  [[nodiscard]] virtual const char* construct_stage() const = 0;

  /// Fill ws.product with quant-codes, the outlier section (in index
  /// order) and the aux payload for `data` (either element type: a stage
  /// visits the view once into its typed kernel), and append the
  /// construct_stage() and "gather_outlier" report entries.
  virtual void construct(FieldView data, const Extents& ext, double eb_kernel,
                         const QuantConfig& quant, Workspace& ws,
                         sim::PipelineReport& report) const = 0;

  /// Serialize the aux payload construct() left in ws.product (nothing for
  /// Lorenzo).
  virtual void write_aux(ByteWriter& w, const Workspace& ws) const = 0;
  /// Mirror of write_aux on the decode side, into ws.product's capacity.
  virtual void read_aux(ByteReader& r, Workspace& ws) const = 0;

  /// Rebuild the field the header `h` describes from the quant-codes the
  /// codec decoded into ws.product.quant, the outlier section in
  /// ws.product.outliers (strictly increasing indices below n) and the aux
  /// read_aux() left in ws.product; every stage adds the outliers as it
  /// rebuilds the values.
  /// Appends its own PipelineReport entries (scatter + reconstruct), and
  /// sizes and fills the field through out.write_field() (out.dtype is
  /// already set).
  virtual void reconstruct(const Compressor::ArchiveInfo& h, const ReconstructConfig& recon,
                           Workspace& ws, Decompressed& out) const = 0;
};

/// The stage for a predictor tag; throws std::logic_error for an unknown
/// tag.
[[nodiscard]] const PredictStage& predict_stage(PredictorKind kind);

}  // namespace szp::pipeline
