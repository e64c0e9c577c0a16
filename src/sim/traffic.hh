// szp::sim::traffic — static traffic & roofline analysis from footprint
// contracts.
//
// The footprint contracts (sim/contract.hh) declare, per kernel, the exact
// element sets each block reads and writes as affine expressions over the
// block index.  The disjointness prover consumes them for safety; this
// analyzer consumes the same clauses for *performance*: symbolically
// evaluating a contract over a concrete launch geometry yields
//
//   * per-buffer, per-launch read/write byte volumes of the host kernel,
//   * a coalescing-efficiency estimate — the fraction of touched 32-word
//     (128-byte) DRAM segments actually used, the quantity Nsight reports
//     as gld_efficiency/gst_efficiency.  Unit-stride windows score ~1.0;
//     strided or narrow clamped windows score < 1.0 because each access
//     drags a whole segment through DRAM, and
//   * an arithmetic-intensity + roofline classification against a
//     DeviceSpec: flops/byte above the device's ridge point means
//     compute-bound, below means bandwidth-bound (the paper's central
//     claim is that these kernels sit left of the ridge).
//
// Volumes are derived per clause kind:
//   kWindow / kBox  exact: evaluate the clause's element ranges for every
//                   block and sum lengths (clamping included).  Segments
//                   are counted per contiguous range.
//   kAll            whole buffer once per block (broadcast reads — every
//                   block really does pull the bytes).
//   kDynamic        data-dependent: the declared worst-case bound
//                   (Clause::dyn_bound elements across the whole launch)
//                   counted once per launch; without a bound, the whole
//                   buffer.  Rows carrying such a clause are flagged
//                   `dyn` — the volume is an upper bound, not an identity.
//
// The analyzer runs inside checked::launch_impl while checking is on, and
// only then: results accumulate in a process-global per-kernel registry
// (szp analyze --traffic/--roofline), and the interval tier cross-validates
// observed bytes against the static prediction — observed traffic beyond
// the declared volume (the *_dyn slack included) is a TrafficFinding, a
// stale contract or an under-declared bound.  The tables describe the host
// kernels.  No stage reads them for its modeled KernelCost, which is a
// closed form of the paper's kernel (sim/profile.hh).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/contract.hh"
#include "sim/device.hh"

namespace szp::sim::traffic {

/// DRAM transaction granularity the coalescing estimate scores against:
/// 32 words × 4 bytes = one 128-byte cache line.
inline constexpr std::uint64_t kSegmentBytes = 128;

/// Statically derived traffic of one launch on one registered buffer.
struct BufVolume {
  std::string buffer;
  std::uint64_t bytes_read = 0;        ///< useful bytes loaded
  std::uint64_t bytes_written = 0;     ///< useful bytes stored
  std::uint64_t seg_bytes_read = 0;    ///< touched read segments × kSegmentBytes
  std::uint64_t seg_bytes_written = 0; ///< touched write segments × kSegmentBytes
  bool dynamic = false;  ///< a kDynamic clause contributed: volume is an upper bound
  /// An *unbounded* kDynamic clause contributed to the direction: the whole
  /// buffer stands in for the table, but there is no declared ceiling to
  /// validate observed traffic against (blocks may legitimately re-read).
  bool unbounded_read = false;
  bool unbounded_write = false;

  /// Row synthesized from a host_sink() clause: a declared worst-case byte
  /// volume into host-owned output state, with no registered buffer behind
  /// it (and therefore no observed traffic to validate against).
  bool host_sink = false;

  /// Useful bytes over segment bytes, 1.0 for untouched directions.
  [[nodiscard]] double coalescing_read() const;
  [[nodiscard]] double coalescing_write() const;
  [[nodiscard]] double coalescing() const;
};

/// Statically derived traffic of one launch, all registered buffers.
struct LaunchTraffic {
  std::vector<BufVolume> buffers;  ///< registration order

  [[nodiscard]] std::uint64_t bytes_read() const;
  [[nodiscard]] std::uint64_t bytes_written() const;
  [[nodiscard]] std::uint64_t bytes() const { return bytes_read() + bytes_written(); }
  [[nodiscard]] double coalescing() const;
  [[nodiscard]] bool dynamic() const;
  [[nodiscard]] const BufVolume* find(std::string_view buffer) const;
};

/// Symbolically evaluate `con` over the concrete launch geometry: per-buffer
/// byte volumes, touched-segment counts, and dynamic-bound flags.
[[nodiscard]] LaunchTraffic analyze(const contract::Contract& con, const contract::Geom& geom,
                                    const std::vector<contract::BufMeta>& bufs);

// ---------------------------------------------------------------------------
// Per-kernel registry (mirrors contract's verdict registry).
// ---------------------------------------------------------------------------

/// Feed one analyzed launch into the process-global per-kernel registry.
/// Called by checked::launch_impl while checking is on.
void record(const char* kernel, const LaunchTraffic& t);

/// Accumulated static traffic of one kernel across its recorded launches.
struct KernelTraffic {
  std::string kernel;
  std::uint64_t launches = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t seg_bytes_read = 0;
  std::uint64_t seg_bytes_written = 0;
  bool dynamic = false;  ///< any launch carried a dynamic (upper-bound) clause

  [[nodiscard]] std::uint64_t bytes() const { return bytes_read + bytes_written; }
  [[nodiscard]] double coalescing() const;
};

/// Snapshot of the registry, sorted by kernel name.
[[nodiscard]] std::vector<KernelTraffic> registry_snapshot();

/// Drop all recorded traffic (tests, fresh analyze runs).
void reset_registry();

/// Deterministic per-kernel traffic table: launches, read/write volumes,
/// coalescing score, dyn flag.  Sorted by kernel name.
[[nodiscard]] std::string traffic_table_text();

// ---------------------------------------------------------------------------
// Roofline classification.
// ---------------------------------------------------------------------------

/// Static arithmetic-intensity estimate (flops per DRAM byte) for a
/// registered kernel, from a fixed per-kernel table calibrated against the
/// wrappers' KernelCost flops.  Unknown kernels default to streaming
/// (intensity well left of any ridge): bandwidth-bound is the null
/// hypothesis the paper argues from.
[[nodiscard]] double kernel_intensity(std::string_view kernel);

/// One kernel's position against the device roofline.
struct RooflineRow {
  std::string kernel;
  double intensity = 0.0;      ///< flops per byte (static estimate)
  double ridge = 0.0;          ///< device ridge point at this kernel's coalescing
  double coalescing = 1.0;     ///< from the traffic registry
  bool compute_bound = false;  ///< intensity > ridge
};

/// Classify one registry entry against `dev`.  The ridge point is
/// compute_peak / (bandwidth × coalescing): poorly coalesced kernels hit
/// the bandwidth wall earlier, so their effective ridge moves right.
[[nodiscard]] RooflineRow classify(const DeviceSpec& dev, const KernelTraffic& t);

/// Deterministic roofline table for every kernel in the registry, sorted by
/// kernel name.
[[nodiscard]] std::string roofline_table_text(const DeviceSpec& dev);

}  // namespace szp::sim::traffic
