// szp — reusable per-call scratch for the compression pipeline, both ways.
//
// Every compress() call needs the same family of O(n) buffers: the
// predictor's quant-codes and outlier section (plus the per-row outlier
// slots of Lorenzo and regression), the histogram bins and their
// block-private replicas, the Huffman encoder's chunk metadata and the rANS
// coder's backward stream.  (The Huffman codec deflates straight into the
// archive; only RLE+VLE's count stream deflates into a payload here.)
// Every decompress() needs the mirror set: the outlier section, the
// quant-codes the codec decodes in place and the predictor's aux payload —
// the same predictor product compress fills, used the other way round.
// Allocating them per call makes repeated-field (and per-slab) work
// malloc- and page-fault-bound; FZ-GPU makes the same observation for real
// device buffers (HPDC'23).  A Workspace owns one instance of each buffer
// and the pipeline stages fill them with capacity-preserving
// assign()/resize() calls, so a reused workspace reaches a steady state
// where no pipeline buffer grows at all.  Interpolation's n-float lattice
// and its visit-ordered outlier list are the per-call allocations left
// outside the workspace.
//
// Page faults: a workspace that grows, and the value-returning decode's
// workspace local to the call, fault their buffers in on first touch.  The
// dense ones (the quant-codes, RLE temporaries, reconstruct scratch and
// the lattice) are sim::device_vectors, 2 MiB-aligned and on huge pages
// from 2 MiB up (sim/aligned.hh).  The sparse ones, rans_stream and the
// predictor product's outlier_slots, keep allocators that never take that
// advice: they touch a page here and there by design.
//
// Concurrency: a Workspace is single-threaded state.  WorkspacePool hands
// out exclusive leases from a mutex-protected free list — parallel slab
// streaming acquires one workspace per worker (from its Compressor's pool
// to compress, from a pool local to the call to decode), and at steady
// state the pool holds max-concurrency workspaces and acquire() allocates
// nothing.
//
// Accounting: the pool cannot see inside malloc, so it counts *grow events*
// instead — a lease compares the capacity of every tracked buffer at
// release against acquire; any increase is a grow event.  The allocation
// test (test_pipeline.cc) asserts grow events and workspace creations both
// stop after warm-up, and BENCH_pipeline.json measures the wall-clock win.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/huffman/codec.hh"
#include "core/predictor/product.hh"
#include "core/thread_safety.hh"
#include "core/types.hh"
#include "sim/aligned.hh"
#include "sim/sparse.hh"

namespace szp {

/// The pipeline's reusable buffers.  Stages fill the slots that belong to
/// them (see core/pipeline/stage.hh); unused slots stay empty and cost
/// nothing.
struct Workspace {
  // --- Predictor product, both directions ----------------------------------
  /// Compress: every predictor's construct fills it, the outlier section
  /// included.  Decode: the outlier section is read into `outliers`, the
  /// codec decodes the quant-codes into `quant`, and the stage reads its
  /// aux into `coefficients`/`level`.
  PredictorProduct product;

  // --- Histogram -----------------------------------------------------------
  std::vector<std::uint64_t> freq;       ///< quant-code histogram
  std::vector<std::uint32_t> hist_priv;  ///< block-private bin replicas

  // --- Codec scratch -------------------------------------------------------
  HuffmanEncoded huffman;                     ///< reused encode product
  std::vector<std::uint64_t> huffman_chunk_bytes;
  std::vector<std::uint64_t> vle_freq;        ///< RLE+VLE stream histograms

  /// The rANS coder's backward buffer (rans_encode_into): the stream is its
  /// tail, copied once into the archive.  Never zeroed, so only the tails
  /// the streams fill are resident.
  sim::uninit_vector<std::uint8_t> rans_stream;

  /// Packed little-endian quant-code bytes for the LZ codec family
  /// (core/codec/lz_codecs.cc): the pack kernel fills it in place, so
  /// repeated LZ compression allocates no staging buffer.
  std::vector<std::uint8_t> codec_bytes;

  // --- Out-of-core slab I/O ------------------------------------------------
  /// Per-worker slab staging buffer for sources without a zero-copy view
  /// (plain-file ingest): each pipeline worker read_at()s its claimed slab
  /// into its leased workspace's slab_io, so steady-state out-of-core
  /// streaming allocates no read buffers either.
  std::vector<std::uint8_t> slab_io;

  /// Number of tracked buffers in the capacity snapshot.
  static constexpr std::size_t kTrackedBuffers = 16;

  /// Capacity snapshot of every tracked buffer, in a fixed order.  A fixed
  /// array (not a vector) so lease accounting itself never allocates —
  /// acquire/release sit on the parallel-slab hot path.
  [[nodiscard]] std::array<std::size_t, kTrackedBuffers> capacities() const;
};

/// Exclusive RAII lease on one pool workspace; returns it on destruction.
class WorkspacePool;
class WorkspaceLease {
 public:
  /// An empty lease: holds no workspace, releases nothing.  Only
  /// compress_many's field workers hold one: each nested compress leases
  /// its own workspaces.
  WorkspaceLease() = default;
  WorkspaceLease(WorkspaceLease&&) noexcept = default;
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(WorkspaceLease&&) = delete;
  ~WorkspaceLease();

  [[nodiscard]] Workspace& operator*() { return *ws_; }
  [[nodiscard]] Workspace* operator->() { return ws_.get(); }

 private:
  friend class WorkspacePool;
  WorkspaceLease(WorkspacePool* pool, std::unique_ptr<Workspace> ws,
                 const std::array<std::size_t, Workspace::kTrackedBuffers>& caps)
      : pool_(pool), ws_(std::move(ws)), caps_at_acquire_(caps) {}

  WorkspacePool* pool_ = nullptr;
  std::unique_ptr<Workspace> ws_;
  std::array<std::size_t, Workspace::kTrackedBuffers> caps_at_acquire_;
};

/// Mutex-protected free list of workspaces.  acquire() pops an idle
/// workspace (or creates one on a cold pool); the lease returns it.
class WorkspacePool {
 public:
  struct Stats {
    std::size_t created = 0;      ///< workspaces ever constructed
    std::size_t leases = 0;       ///< acquire() calls served
    std::size_t grow_events = 0;  ///< tracked-buffer capacity growths
  };

  WorkspacePool() = default;
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  [[nodiscard]] WorkspaceLease acquire() SZP_EXCLUDES(mutex_);
  [[nodiscard]] Stats stats() const SZP_EXCLUDES(mutex_);

 private:
  friend class WorkspaceLease;
  void release(std::unique_ptr<Workspace> ws,
               const std::array<std::size_t, Workspace::kTrackedBuffers>& caps_at_acquire)
      SZP_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Workspace>> idle_ SZP_GUARDED_BY(mutex_);
  Stats stats_ SZP_GUARDED_BY(mutex_);
};

}  // namespace szp
