// szp — the public compression API (the paper's Fig 1 cuSZ+ pipeline).
//
// Compression:  prequant+predict construct → gather outliers → histogram →
//               [selector] → {Huffman | RLE [+VLE] | rANS | LZ family} encode
// Decompression: decode quant-codes → scatter outliers →
//               predictor reconstruction → scale by 2eb.
//
// The Compressor itself is thin: it validates inputs, resolves the error
// bound, and runs the one fixed pipeline: the predictor stage and the codec
// come from two fixed tables indexed by the tags the archive header stores
// (pipeline::predict_stage in core/pipeline/stage.hh, pipeline::codec in
// core/codec/codec.hh), around the shared archive framing
// (core/archive.hh).
// The API is dtype-generic: a field enters as one FieldView
// (core/types.hh) whatever its element type, and comes back as one
// Decompressed whose bytes()/write_field() are the only code that picks
// between its float and double vectors.  The element type is a template
// parameter only on the kernels the stages visit into.
// Per-call scratch comes from a reusable WorkspacePool (core/workspace.hh),
// so a reused Compressor performs zero steady-state allocations in the
// compression hot path; decompression reaches the same steady state
// through its explicit-workspace overload, in the same predictor product
// compression fills.
//
// Every stage is timed on the host and carries an analytic KernelCost so
// benches can print both measured-CPU and modeled-V100/A100 throughputs
// (see DESIGN.md §2 for the substitution rationale).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/analysis/selector.hh"
#include "core/eb.hh"
#include "core/predictor/lorenzo.hh"
#include "core/types.hh"
#include "core/workspace.hh"
#include "sim/profile.hh"

namespace szp {

/// Which prediction model transforms values into quant-codes.
enum class PredictorKind : std::uint8_t {
  kLorenzo = 0,     ///< first-order Lorenzo with dual quantization (default;
                    ///< decompression is the partial-sum kernel)
  kRegression = 1,  ///< per-chunk linear-regression planes (SZ2-style; the
                    ///< paper's future-work predictor — see
                    ///< predictor/regression.hh for the trade-offs)
  kInterpolation = 2,  ///< multi-level (cubic) interpolation (SZ3-style,
                       ///< the paper's reference [19]; see
                       ///< predictor/interpolation.hh)
};

struct CompressConfig {
  ErrorBound eb = ErrorBound::relative(1e-4);
  QuantConfig quant;
  Workflow workflow = Workflow::kAuto;
  SelectorConfig selector;
  std::uint32_t huffman_chunk = 4096;  ///< symbols per encode chunk
  /// When nonzero (must divide huffman_chunk), record a gap array so Huffman
  /// decoding parallelizes per sub-block of this many symbols — the
  /// fine-grained decoder of the paper's reference [15] (4 bytes metadata
  /// per sub-block).
  std::uint32_t huffman_gap_stride = 0;
  PredictorKind predictor = PredictorKind::kLorenzo;
};

struct CompressStats {
  Workflow workflow_used = Workflow::kHuffman;
  double eb_abs = 0.0;
  std::size_t original_bytes = 0;
  std::size_t compressed_bytes = 0;
  double ratio = 0.0;
  std::size_t outlier_count = 0;
  WorkflowDecision decision;        ///< selector evidence (valid when consulted)
  sim::PipelineReport pipeline;     ///< per-stage timings and kernel costs
};

struct Compressed {
  std::vector<std::uint8_t> bytes;  ///< self-describing archive
  CompressStats stats;
};

/// A decoded field.  `dtype` says which of the two vectors holds it; the
/// other is empty.  Library code never picks between them by hand: it goes
/// through bytes(), held_bytes() and write_field().
struct Decompressed {
  DType dtype = DType::kFloat32;
  std::vector<float> data;        ///< filled when dtype == kFloat32
  std::vector<double> data_f64;   ///< filled when dtype == kFloat64
  Extents extents;
  sim::PipelineReport pipeline;   ///< the decode's stage report

  /// The decoded elements as raw bytes (the vector `dtype` selects).
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    if (dtype == DType::kFloat64) {
      return {reinterpret_cast<const std::uint8_t*>(data_f64.data()),
              data_f64.size() * sizeof(double)};
    }
    return {reinterpret_cast<const std::uint8_t*>(data.data()), data.size() * sizeof(float)};
  }

  /// Heap bytes the two vectors hold (capacity, not size).
  [[nodiscard]] std::size_t held_bytes() const {
    return data.capacity() * sizeof(float) + data_f64.capacity() * sizeof(double);
  }

  /// Clear the vector `dtype` does not select and call `f` with the one it
  /// does (std::vector<float>& or std::vector<double>&), for the caller to
  /// size and fill.  A reused result may hold the other element type's
  /// field from an earlier decode; this is what drops it.
  template <typename F>
  decltype(auto) write_field(F&& f) {
    if (dtype == DType::kFloat64) {
      data.clear();
      return std::forward<F>(f)(data_f64);
    }
    data_f64.clear();
    return std::forward<F>(f)(data);
  }

  /// write_field(f) for a kernel that writes all `n` elements: the vector
  /// is sized to n before `f` sees it, and storage it grows into is fresh
  /// (nothing copied) and advised for huge pages (sim::reserve_dense).
  template <typename F>
  decltype(auto) write_field(std::size_t n, F&& f) {
    return write_field([&]<typename T>(std::vector<T>& v) -> decltype(auto) {
      if (v.capacity() < n) v.clear();
      sim::reserve_dense(v, n);
      v.resize(n);
      return std::forward<F>(f)(v);
    });
  }
};

/// Error-bounded lossy compressor (cuSZ+).  Holds only its configuration
/// plus a pool of reusable workspaces; safe to reuse across fields (and
/// worth it: a reused Compressor compresses without steady-state
/// allocations).  Copying copies the configuration only — the copy starts
/// with a cold pool.
class Compressor {
 public:
  Compressor() = default;
  explicit Compressor(CompressConfig cfg) : cfg_(std::move(cfg)) {}
  Compressor(const Compressor& other) : cfg_(other.cfg_) {}
  Compressor& operator=(const Compressor& other) {
    cfg_ = other.cfg_;
    return *this;
  }

  [[nodiscard]] const CompressConfig& config() const { return cfg_; }

  /// Compress one field: a FieldView, so any contiguous float or double
  /// range converts in place.  Throws std::invalid_argument on
  /// empty/mismatched input, non-finite data, or an error bound too tight
  /// for exact integer residual arithmetic (max|d|/2eb must stay below
  /// 2^27).
  [[nodiscard]] Compressed compress(FieldView data, const Extents& ext) const;

  /// Compress with a per-call config override (e.g. the streaming layer's
  /// pre-resolved absolute bound), still reusing this Compressor's
  /// workspace pool.
  [[nodiscard]] Compressed compress(FieldView data, const Extents& ext,
                                    const CompressConfig& cfg) const;

  /// Compress through an explicitly supplied workspace (bypasses the pool).
  /// A long-lived worker — one slab-streaming thread compressing many slabs
  /// — leases once via lease_workspace() and passes the workspace here, so
  /// the pool mutex and per-lease capacity accounting are paid once per
  /// worker instead of once per slab.  The workspace must not be shared
  /// across concurrent calls.
  [[nodiscard]] Compressed compress(FieldView data, const Extents& ext,
                                    const CompressConfig& cfg, Workspace& ws) const;

  /// Exclusive RAII lease on one of this Compressor's pooled workspaces,
  /// for use with the explicit-workspace compress overload.
  [[nodiscard]] WorkspaceLease lease_workspace() const { return pool_.acquire(); }

  /// Decompress an archive produced by compress().  `recon` selects the
  /// reconstruction kernel variant (Table II ablation); the default is the
  /// optimized partial-sum kernel.  Runs the overload below over a
  /// workspace local to the call.
  [[nodiscard]] static Decompressed decompress(std::span<const std::uint8_t> archive,
                                               const ReconstructConfig& recon = {});

  /// Decompress into caller-owned buffers, mirroring the explicit-workspace
  /// compress overloads: the codec decodes the quant-codes in place into
  /// ws.product, the predictor reads its aux into it and takes its
  /// reconstruct scratch from it, and `out`'s vectors are resized in place
  /// — so a worker decoding many slabs through one workspace and one `out`
  /// stops allocating after the first.  The result
  /// equals the value-returning decompress() byte for byte, whatever `ws`
  /// and `out` held before.  On DecodeError `out`'s contents are
  /// unspecified.  The workspace must not be shared across concurrent calls.
  static void decompress(std::span<const std::uint8_t> archive, Decompressed& out,
                         Workspace& ws, const ReconstructConfig& recon = {});

  /// An archive's fixed header: everything before the predictor aux
  /// payload (core/archive.hh reads and writes it as archive::ArchiveHeader).
  struct ArchiveInfo {
    Workflow workflow = Workflow::kHuffman;
    DType dtype = DType::kFloat32;
    Extents extents;
    double eb_abs = 0.0;          ///< kernel-side absolute bound
    std::uint32_t capacity = 0;   ///< quantizer capacity (histogram bins)
    PredictorKind predictor = PredictorKind::kLorenzo;
  };
  /// Parse an archive's header without decompressing the payload.
  [[nodiscard]] static ArchiveInfo inspect(std::span<const std::uint8_t> archive);

  /// Pool accounting for this Compressor's workspaces (allocation tests and
  /// the reuse bench read `created` / `grow_events`).
  [[nodiscard]] WorkspacePool::Stats workspace_stats() const { return pool_.stats(); }

 private:
  CompressConfig cfg_{};
  /// compress() is logically const; the pool is bookkeeping, not state.
  mutable WorkspacePool pool_;
};

}  // namespace szp
