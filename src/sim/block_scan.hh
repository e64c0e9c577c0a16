// szp::sim — block-level inclusive scan, mirroring NVIDIA::cub BlockScan.
//
// cuSZ+'s fine-grained Lorenzo reconstruction (§IV-B.3) is built from
// chunk-wide inclusive partial sums.  On the GPU these are cub BlockScans
// (1-D) or handcrafted warp-shuffle scans with per-thread "sequentiality"
// (2-D/3-D).  Here the same structure is expressed as a tiled scan: each
// virtual thread owns `seq` consecutive items (its thread-private tp[]
// fragment), fragments are scanned trivially, and fragment totals are
// propagated — exactly the three-phase scan the paper describes.  The
// Lorenzo partial sums use it for the lanes of their x-scan under
// word-granular checking; the host passes walk plain rows.
//
// The `_at` variants take an accessor (`at(i)` -> T&) instead of a pointer
// and attribute each fragment to its virtual thread via
// checked::this_thread(), so word-granular checking (check.hh tier 2) sees
// the scan exactly as racecheck would see the cub version: lanes striding
// over disjoint words, carries in registers — benign, never flagged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "sim/check.hh"

namespace szp::sim {

/// acc + v in the unsigned type of the integer T: partial sums of corrupt
/// quant-codes can overflow, and the unsigned add gives the same bits as the
/// signed one wherever that does not overflow.
template <typename T>
[[nodiscard]] T scan_add(T acc, T v) {
  using U = std::make_unsigned_t<T>;
  return static_cast<T>(static_cast<U>(acc) + static_cast<U>(v));
}

/// Inclusive scan of at(0..n) in place, organized as ceil(n/seq) virtual
/// threads each owning `seq` consecutive elements.  Lane l = lane_base + f
/// is attributed fragment f's accesses; the carry lives in a register.
/// Phase 1: each fragment scans locally (thread-private registers).
/// Phase 2: running carry of fragment totals (the warp-shuffle propagate).
/// No trailing barrier: callers decide where the epoch closes.
template <typename T, typename At>
void block_inclusive_scan_at(At&& at, std::size_t n, std::size_t seq = 8,
                             std::uint32_t lane_base = 0) {
  if (n == 0) return;
  if (seq == 0) seq = 1;
  T carry{};
  std::uint32_t lane = lane_base;
  for (std::size_t frag = 0; frag < n; frag += seq, ++lane) {
    checked::this_thread(lane);
    const std::size_t end = frag + seq < n ? frag + seq : n;
    T acc = carry;
    for (std::size_t i = frag; i < end; ++i) {
      acc = scan_add<T>(acc, at(i));
      at(i) = acc;
    }
    carry = acc;
  }
}

/// Inclusive scan of `chunk` in place (contiguous convenience wrapper).
/// Closes the barrier epoch afterwards, like the cub scan's __syncthreads().
template <typename T>
void block_inclusive_scan(std::span<T> chunk, std::size_t seq = 8) {
  block_inclusive_scan_at<T>([p = chunk.data()](std::size_t i) -> T& { return p[i]; },
                             chunk.size(), seq);
  checked::barrier();
}

}  // namespace szp::sim
