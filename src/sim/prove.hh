// szp::sim::contract — symbolic prover for footprint contracts.
//
// Given a contract, a launch geometry, and the registered buffers,
// prove() decides two properties by interval/stride arithmetic over the
// affine terms (see contract.hh):
//
//   (a) cross-block disjointness: for every buffer with a write-access
//       clause, no two distinct blocks' declared write footprints overlap,
//       and no block's write footprint overlaps another block's declared
//       read footprint of the same buffer (WW and RW freedom);
//   (b) bounds: every unclamped window lies inside [0, elems) for every
//       block of the grid (clamped windows, boxes, and whole-buffer clauses
//       are in-bounds by construction).
//
// The domain is deliberately incomplete: data-dependent footprints
// (kDynamic), interleaved gap-stride families whose windows are provably
// disjoint only via modular reasoning, and mixed b()/bx() terms all yield
// kUnproved with a reason string.  A verdict is evidence that `szp analyze`
// reports; it changes nothing any checking tier runs.  An unproved contract
// is not an error; a *wrong* contract is caught dynamically by the interval
// tier's observed ⊆ declared cross-validation.
//
// prove() is pure and cheap (a few dozen integer comparisons), so checked
// launches re-prove per launch geometry rather than caching verdicts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/contract.hh"

namespace szp::sim::contract {

enum class Verdict : std::uint8_t {
  kProved,    ///< disjointness + bounds hold for every block pair
  kUnproved,  ///< outside the affine domain: falls back to dynamic checking
};

[[nodiscard]] const char* verdict_name(Verdict v);

struct ProveResult {
  Verdict verdict = Verdict::kUnproved;
  /// Why the proof failed, one line per obstacle, deterministic order
  /// (clause declaration order).  Empty when proved.
  std::vector<std::string> reasons;

  [[nodiscard]] bool proved() const { return verdict == Verdict::kProved; }
};

/// Decide disjointness + bounds for `con` under `geom` against the
/// registered buffers' element counts.  Unknown buffer names or malformed
/// clauses (len < 1, stride < 0) are proof obstacles, not exceptions.
[[nodiscard]] ProveResult prove(const Contract& con, const Geom& geom,
                                const std::vector<BufMeta>& bufs);

// ---------------------------------------------------------------------------
// Kernel verdict registry (feeds `szp analyze`).
// ---------------------------------------------------------------------------

/// Aggregated per-kernel outcome across every checked launch this process
/// has run.  A kernel that launches under several geometries keeps the
/// weakest verdict seen: one unproved launch makes it unproved.
struct KernelVerdict {
  std::string kernel;
  Verdict verdict = Verdict::kUnproved;
  std::uint64_t launches = 0;  ///< checked launches observed
  std::string reason;          ///< first unproved reason ("" when proved)
};

/// Record one checked launch's outcome for `szp analyze` and tests.
void note_launch(const char* kernel, const ProveResult& result);

/// Snapshot of the registry, sorted by kernel name (deterministic).
[[nodiscard]] std::vector<KernelVerdict> registry_snapshot();
void reset_registry();

/// Deterministic per-kernel verdict table (kernels sorted by name, stable
/// verdict spelling), formatted like checked::report_text() so CI diffs of
/// `szp analyze` output are byte-stable.
[[nodiscard]] std::string verdict_table_text();

}  // namespace szp::sim::contract
