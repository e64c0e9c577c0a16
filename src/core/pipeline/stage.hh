// szp — the stage-typed pipeline layer.
//
// The paper's Fig. 1 pipeline is an explicit composition:
//
//   prequant+predict → gather outliers → histogram → selector →
//   {Huffman | RLE [+VLE] | rANS}  (and the mirrored decode chain)
//
// cuSZ is pitched as a modular framework precisely so the predictor and the
// codec can be swapped (Tian et al., PACT'20).  This header makes that
// modularity structural for the *prediction* half: each predictor branch is
// a PredictStage and the Compressor assembles a pipeline by registry lookup
// (registry.hh) instead of hard-coded switch arms.  The quant-code payload
// half lives behind the LosslessCodec interface (core/codec/codec.hh) in the
// same registry.  Adding a predictor or codec is: implement the interface,
// register it, done — the Compressor, the streaming layer, the CLI, and the
// benches pick it up through the same lookup.
//
// Contract highlights:
//   * Stages serialize *directly* after the fixed archive header
//     (core/archive.hh) in a layout they own; the encode and decode halves
//     of one workflow must agree byte-for-byte.
//   * Stages are dtype-generic: construct() takes a FieldView and visits it
//     once into the stage's typed kernel; reconstruct() sizes and fills the
//     field through Decompressed::write_field().
//   * Stages report their work as PipelineReport entries using the same
//     stage names the monolithic compressor used ("lorenzo_construct",
//     "huffman_book", ... ) — tests and the perf benches pin those names.
//   * Construction writes into the caller's Workspace (core/workspace.hh)
//     through capacity-preserving fills, never into fresh allocations, so
//     repeated compression is allocation-free at steady state.  The decode
//     side mirrors it: reconstruction takes its scratch from the workspace
//     and resizes the caller's Decompressed buffers in place.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/compressor.hh"
#include "core/serialize.hh"
#include "core/workspace.hh"
#include "sim/profile.hh"
#include "sim/sparse.hh"

namespace szp::pipeline {

/// Predictor sidecar payload decoded from the archive: regression
/// coefficients or interpolation anchors (and the interpolation level).
struct PredictorAux {
  std::vector<float> coefficients;
  int level = 0;
};

/// What a predictor's construct pass produced: views into the Workspace
/// buffers the stage filled, plus the analytic kernel cost.
struct PredictProduct {
  std::span<const quant_t> quant;
  std::span<const qdiff_t> outlier_dense;
  sim::KernelCost cost;
};

/// One prediction model: the construct half of compression and the
/// reconstruct half of decompression, plus its aux-payload serialization.
class PredictStage {
 public:
  virtual ~PredictStage() = default;

  [[nodiscard]] virtual PredictorKind kind() const = 0;
  /// PipelineReport entry name of the construct pass (pinned by tests).
  [[nodiscard]] virtual const char* construct_stage() const = 0;

  /// Fill ws with quant-codes and the dense outlier array for `data`
  /// (either element type: a stage visits the view once into its typed
  /// kernel).
  [[nodiscard]] virtual PredictProduct construct(FieldView data, const Extents& ext,
                                                 double eb_kernel, const CompressConfig& cfg,
                                                 Workspace& ws) const = 0;

  /// Serialize the aux payload construct() left in ws (nothing for Lorenzo).
  virtual void write_aux(ByteWriter& w, const Workspace& ws) const = 0;
  /// Mirror of write_aux on the decode side.
  virtual void read_aux(ByteReader& r, PredictorAux& aux) const = 0;

  /// Rebuild the field from decoded quant-codes and the sparse outlier
  /// stream; appends its own PipelineReport entries (scatter + reconstruct)
  /// and sizes and fills the field through out.write_field() (out.dtype
  /// is already set).
  /// `scratch` is workspace memory holding anything from an earlier call:
  /// the stage sizes it to ext.count() and owns its contents — a stage
  /// that scatters outliers into it re-zeroes it first.
  virtual void reconstruct(std::span<const quant_t> quant,
                           const sim::SparseVector<qdiff_t>& outliers, const PredictorAux& aux,
                           const Extents& ext, double eb_abs, const QuantConfig& qcfg,
                           const ReconstructConfig& recon, std::size_t payload_bytes,
                           sim::device_vector<qdiff_t>& scratch, Decompressed& out) const = 0;
};

}  // namespace szp::pipeline
