// szp — blocked ("streaming") compression for fields larger than device
// memory.
//
// The paper notes (§V-A.3): "when the field is too large to fit in a single
// GPU's memory, CUSZ+ divides it into blocks and then compresses by block."
// StreamingCompressor implements that: the field is partitioned into slabs
// along its slowest-varying axis, each slab is compressed independently
// (its own workflow selection, codebook, and outlier stream), and the slab
// archives are packed into a self-describing container.
//
// Slab independence buys two things.  First, partial access:
// decompress_slab() reconstructs one slab without touching the others — the
// coarse-grained decompression granularity cuSZ's block split was designed
// for (§II-A).  Second, parallelism: one bounded producer/consumer engine
// schedules every slab run — compress, decode in memory or file to file,
// and compress_many() across whole fields — overlapping per-item work with
// in-order packing (host-orchestrated, one pooled workspace per worker;
// see DESIGN.md §2.2).  Finished items are consumed strictly in index
// order, so the container bytes are identical to a serial run, which is
// the same worker loop on the calling thread.
//
// A relative error bound is resolved against the *whole field's* range
// before slabbing, so every slab honors the same absolute bound and the
// result is identical in quality to single-shot compression.  That scan
// keeps each slab's own range, which the slab's compress then uses instead
// of scanning the slab again.
//
// Like Compressor, the engine is dtype-generic: an in-memory field enters
// as a FieldView, a streamed one as raw bytes plus a DType, and each slab
// reaches Compressor::compress as FieldView(bytes, dtype) cut from the
// source view or a staging buffer.  Decodes return the same Decompressed
// as Compressor::decompress.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "core/compressor.hh"

namespace szp {

namespace io {
class FieldSource;
class ContainerSink;
}  // namespace io

struct StreamingConfig {
  CompressConfig base;
  /// Maximum elements per slab (default 2^22 ~ 16 MB of float32).
  std::size_t max_slab_elems = std::size_t{1} << 22;
  /// Worker threads for the slab pipeline, both directions (0 = the
  /// OpenMP thread budget; 1 runs slabs one at a time on the calling
  /// thread).  It sets how wide a run is and nothing else: slab archives are
  /// packed in index order at every width, and the slab plan never consults
  /// it, so the container bytes do not depend on it.
  std::size_t workers = 0;
  /// Hard cap on the pipeline's resident bytes (0 = unbudgeted).  The budget
  /// sizes slabs for a fixed model of four workers, each staging one slab,
  /// with a window of eight finished archives parked awaiting in-order
  /// packing:  4·S + 8·(S + overhead) ≤ budget  (DESIGN.md §2.3).  So the
  /// plan depends on the field, its dtype, max_slab_elems and the budget
  /// only, and a budgeted container is byte-identical on any machine, at any
  /// worker count, in memory and file to file.  Each run, compress or
  /// decode, then narrows its own workers and window to fit (at worst one
  /// worker with a window of one) and refuses with ConfigError when even
  /// that cannot fit.
  std::size_t memory_budget = 0;
  /// File ingest mode for compress_file()/decompress_file(): mmap the input
  /// when the platform supports it (zero-copy slab spans, residency managed
  /// by the page cache), else — or when false — positional reads into
  /// per-worker staging buffers, whose residency the budget meters.
  bool use_mmap = true;
};

struct SlabInfo {
  Extents extents;        ///< the slab's own extents
  std::size_t offset = 0; ///< element offset of the slab in the field
  double ratio = 0.0;
  Workflow workflow = Workflow::kHuffman;
};

/// Host wall-clock attribution for one streaming compress, so a
/// parallel-vs-serial loss can be pinned to a phase instead of guessed at.
/// compress/pack are summed across workers and overlap in the parallel
/// pipeline (packing is folded into the worker loop), so they need not sum
/// to — and may exceed — the end-to-end wall time.
struct StreamingPhaseTimings {
  double range_seconds = 0.0;     ///< whole-field bound resolution
  double read_seconds = 0.0;      ///< slab ingest (source reads), summed over workers
  double compress_seconds = 0.0;  ///< per-slab compression, summed over workers
  double pack_seconds = 0.0;      ///< container packing, summed over workers
  double write_seconds = 0.0;     ///< sink writes (subset of pack), in-order packer only
};

struct StreamingStats {
  std::size_t original_bytes = 0;
  std::size_t compressed_bytes = 0;
  double ratio = 0.0;
  double eb_abs = 0.0;
  std::vector<SlabInfo> slabs;
  StreamingPhaseTimings phases;
  /// Worker threads the slab pipeline actually ran with: cfg.workers capped
  /// by the item count, narrowed further by a memory budget, and 1 when
  /// nested under an outer fan-out.
  std::size_t workers_used = 1;
  /// High-water mark of bytes the pipeline itself held resident: staging
  /// buffers for viewless sources, finished slabs parked awaiting in-order
  /// packing, and container bytes retained by an in-memory sink.  Bytes a
  /// zero-copy view (span, mmap) or the OS page cache hold are not charged
  /// — they are the caller's/kernel's residency, not the pipeline's.
  std::size_t peak_resident_bytes = 0;
};

struct StreamingCompressed {
  std::vector<std::uint8_t> bytes;
  StreamingStats stats;
};

/// Kept as a name only: a streaming decode returns the same Decompressed
/// as Compressor::decompress (decompress_slab() carries the slab's stage
/// report; a whole-container decode leaves the report empty).
using StreamingDecompressed = Decompressed;

/// Result of an out-of-core decompress: what the container declared, plus
/// the run's stats.  For decode runs the stats read "backwards":
/// original_bytes is the raw field emitted, compressed_bytes the container
/// ingested, compress_seconds the per-slab *decode* time, and pack/write
/// cover the in-order emission of raw element bytes.
struct StreamingFileInfo {
  DType dtype = DType::kFloat32;
  Extents extents;
  StreamingStats stats;
};

/// One validated entry of a container's slab directory.  `bytes` is a view
/// into the container buffer the index was built from — the index is valid
/// only as long as that buffer is.
struct ContainerSlab {
  std::size_t offset = 0;               ///< element offset in the field
  std::size_t count = 0;                ///< element count of the slab
  std::span<const std::uint8_t> bytes;  ///< the nested SZP+ archive
};

/// The parsed, fully validated slab directory of a container: build it once
/// with StreamingCompressor::index(), then decompress_slab() is O(1) per
/// slab instead of re-walking the preceding directory entries.
struct ContainerIndex {
  Extents extents;
  DType dtype = DType::kFloat32;
  std::vector<ContainerSlab> slabs;
};

class StreamingCompressor {
 public:
  StreamingCompressor() = default;
  explicit StreamingCompressor(StreamingConfig cfg) : cfg_(std::move(cfg)) {}

  [[nodiscard]] const StreamingConfig& config() const { return cfg_; }

  /// Compress an in-memory field (any FieldView: float or double) into a
  /// slab container — compress_stream() over a span source.
  [[nodiscard]] StreamingCompressed compress(FieldView data, const Extents& ext) const;

  /// Per-call config override: compress with `cfg` instead of the
  /// constructed config, reusing this instance's compressor and workspace
  /// pool.  Lets one warm instance serve calls with different worker/slab
  /// settings (and lets the bench compare serial vs parallel through
  /// identical pooled buffers).
  [[nodiscard]] StreamingCompressed compress(FieldView data, const Extents& ext,
                                             const StreamingConfig& cfg) const;

  /// Out-of-core tier: compress raw element bytes flowing from a
  /// FieldSource into a ContainerSink, so ingest (read), per-slab
  /// compression, in-order packing, and emission (write) all overlap in the
  /// same bounded producer/consumer queue — peak residency is bounded by
  /// the worker count and its window (or cfg.memory_budget), never by
  /// field size.  The container bytes are identical to the in-memory
  /// compress() of the same field under the same config, by construction.
  /// `dtype` declares the element type of the source bytes; the source size
  /// must equal ext.count() * element size exactly.
  StreamingStats compress_stream(io::FieldSource& src, DType dtype, const Extents& ext,
                                 io::ContainerSink& sink) const;
  StreamingStats compress_stream(io::FieldSource& src, DType dtype, const Extents& ext,
                                 io::ContainerSink& sink, const StreamingConfig& cfg) const;

  /// File-to-file convenience over compress_stream(): `input` holds raw
  /// little-endian elements of `dtype` with extents `ext`; the container is
  /// streamed to `output`.  Ingest is mmap-backed when cfg.use_mmap (and
  /// the platform allows), positional reads otherwise.
  StreamingStats compress_file(const std::filesystem::path& input,
                               const std::filesystem::path& output, const Extents& ext,
                               DType dtype) const;
  StreamingStats compress_file(const std::filesystem::path& input,
                               const std::filesystem::path& output, const Extents& ext,
                               DType dtype, const StreamingConfig& cfg) const;

  /// Out-of-core decode: stream a container from a FieldSource, decode
  /// slabs through the same bounded queue, and emit raw element bytes to
  /// the sink strictly in field order.  Never materializes the whole field:
  /// peak residency is staging + parked decoded slabs, budget-capped via
  /// cfg.memory_budget like the compress side.
  [[nodiscard]] static StreamingFileInfo decompress_stream(io::FieldSource& container,
                                                           io::ContainerSink& raw);
  [[nodiscard]] static StreamingFileInfo decompress_stream(io::FieldSource& container,
                                                           io::ContainerSink& raw,
                                                           const StreamingConfig& cfg);

  /// File-to-file decode: reads the SZPC container at `input`, writes the
  /// raw little-endian element bytes to `output`.
  [[nodiscard]] static StreamingFileInfo decompress_file(const std::filesystem::path& input,
                                                         const std::filesystem::path& output);
  [[nodiscard]] static StreamingFileInfo decompress_file(const std::filesystem::path& input,
                                                         const std::filesystem::path& output,
                                                         const StreamingConfig& cfg);

  /// Compress a batch of fields (fields[i] has extents exts[i]) on the slab
  /// engine, one field per item, fanned out across cfg.workers (each field
  /// then compresses single-worker, so the fan-out stays one level).
  /// Equivalent to calling compress() per field, in order.
  /// Typed per element because a span of spans does not convert to any one
  /// FieldView-based signature; both forward to one implementation.
  [[nodiscard]] std::vector<StreamingCompressed> compress_many(
      std::span<const std::span<const float>> fields, std::span<const Extents> exts) const;
  [[nodiscard]] std::vector<StreamingCompressed> compress_many(
      std::span<const std::span<const double>> fields, std::span<const Extents> exts) const;

  /// Reassemble the whole field: the decompress_stream() path over the
  /// in-memory container, appending decoded slabs in field order into a
  /// result reserved once the directory is validated.  The config overload
  /// honors cfg.workers and cfg.memory_budget exactly as decompress_stream()
  /// does (an undersized budget is refused with ConfigError); the no-config
  /// overload decodes with the default (all threads, unbudgeted) config.
  [[nodiscard]] static Decompressed decompress(std::span<const std::uint8_t> container);
  [[nodiscard]] static Decompressed decompress(std::span<const std::uint8_t> container,
                                               const StreamingConfig& cfg);

  /// Number of slabs in a container: the directory is read and checked,
  /// no slab archive is inspected or decoded.
  [[nodiscard]] static std::size_t slab_count(std::span<const std::uint8_t> container);

  /// Parse and validate the whole slab directory once (no payload decode).
  /// The returned index views the container buffer; keep it alive.
  [[nodiscard]] static ContainerIndex index(std::span<const std::uint8_t> container);

  /// Decompress a single slab (partial access): the slab archive's own
  /// Compressor::decompress result, stage report included.  `info_out`, if
  /// non-null, receives the slab's extents and element offset within the
  /// full field.  The container overload rebuilds the directory index per
  /// call; when reading many slabs from one container, build the index once
  /// and use the ContainerIndex overload (O(1) per slab).
  [[nodiscard]] static Decompressed decompress_slab(std::span<const std::uint8_t> container,
                                                    std::size_t slab_index,
                                                    SlabInfo* info_out = nullptr);
  [[nodiscard]] static Decompressed decompress_slab(const ContainerIndex& index,
                                                    std::size_t slab_index,
                                                    SlabInfo* info_out = nullptr);

 private:
  StreamingConfig cfg_{};
  /// Slab compression funnels through this Compressor so its workspace pool
  /// persists across compress() calls (compress() stays logically const).
  /// Each pipeline worker leases one workspace for its whole lifetime
  /// (Compressor::lease_workspace), so the pool's capability-annotated
  /// Mutex (core/thread_safety.hh) is taken once per worker, not once per
  /// slab.  The pipeline's own coordination (slab claiming, the in-order
  /// pack frontier) lives in a short-lived engine local to each call;
  /// worker-local state (the per-slab outputs) is disjoint by index.
  Compressor slab_compressor_{};
};

}  // namespace szp
