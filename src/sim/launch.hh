// szp::sim — launch geometry and the one parallel loop.
//
// Kernels in this reproduction are written against a CUDA-like decomposition:
// a grid of independent thread blocks, each owning a chunk of the problem.
// launch_blocks() executes the grid; blocks run in parallel via OpenMP (each
// OpenMP thread plays the role of an SM executing one block at a time),
// while the code inside a block is ordinary sequential C++ standing in for
// the cooperating threads of the block.  This keeps the *decomposition*
// (chunking, shared-memory staging, scan structure) identical to the CUDA
// implementation while remaining portable.
//
// launch_blocks() is the only parallel loop in szplus, and this header is
// the only place that names OpenMP.  Everything else maps onto it: the 3-D
// and in-order launchers are index maps over it, reduce_blocks() runs its
// partials as one launch, and the streaming tier's slab-worker team is a
// launch of `workers` blocks on exactly `workers` threads.  So the parallel
// policy — team size, the one-level nesting guard, which error wins — is
// decided once, here.
//
// Exception safety: an exception cannot leave an OpenMP parallel region —
// an uncaught throw inside the loop calls std::terminate.  Decode kernels
// run over untrusted archive bytes and throw szp::DecodeError on corrupt
// input, so the launcher captures the exception of the lowest faulting
// block index (for determinism), lets the remaining blocks drain, and
// rethrows after the region joins.  This mirrors how a CUDA kernel reports
// a fault: the grid completes (or is torn down) and the error surfaces on
// the host at the synchronization point.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace szp::sim {

/// True when the caller is already inside an *active* OpenMP parallel region
/// — a streaming slab worker or a compress_many() field worker.  Kernel
/// grids launched from such a worker run inline on the calling thread: the
/// fan-out is explicitly one-level (coarse-grained over slabs/fields, the
/// paper's §II thesis), so inner launches can neither oversubscribe the
/// machine with nested teams nor pay a per-launch team spin-up.  This makes
/// the nesting policy independent of the OpenMP runtime's implementation
/// default (OMP_MAX_ACTIVE_LEVELS / nest-var).
[[nodiscard]] inline bool in_parallel_worker() {
#ifdef _OPENMP
  return omp_get_active_level() > 0;
#else
  return false;
#endif
}

/// The default team: the OpenMP thread budget (OMP_NUM_THREADS,
/// omp_set_num_threads), or one thread without OpenMP.
[[nodiscard]] inline std::size_t thread_budget() {
#ifdef _OPENMP
  return static_cast<std::size_t>(std::max(1, omp_get_max_threads()));
#else
  return 1;
#endif
}

/// Threads a launch from the calling thread runs on when it asks for
/// `threads` (0: the default team).  One inside a worker — the one-level
/// guard — and one without OpenMP.
[[nodiscard]] inline std::size_t team_size(std::size_t threads) {
#ifdef _OPENMP
  if (in_parallel_worker()) return 1;
  return threads != 0 ? threads : thread_budget();
#else
  (void)threads;
  return 1;
#endif
}

/// CUDA-style 3-component extent.
struct Dim3 {
  std::uint32_t x = 1;
  std::uint32_t y = 1;
  std::uint32_t z = 1;

  [[nodiscard]] std::size_t count() const {
    return static_cast<std::size_t>(x) * y * z;
  }
};

/// Ceiling division for grid sizing.
[[nodiscard]] constexpr std::size_t div_ceil(std::size_t n, std::size_t d) {
  return (n + d - 1) / d;
}

namespace detail {

/// Captures the exception of the lowest-keyed faulting block of a launch,
/// so the rethrown error is deterministic regardless of thread interleaving.
/// note() is called from inside catch blocks across the team;
/// rethrow_if_set() after the team joins.
class FirstBlockError {
 public:
  void note(std::size_t key) noexcept {
    const std::lock_guard<std::mutex> lk(m_);
    if (key < key_) {
      key_ = key;
      error_ = std::current_exception();
    }
  }

  void rethrow_if_set() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex m_;
  std::exception_ptr error_;
  std::size_t key_ = std::numeric_limits<std::size_t>::max();
};

/// The one parallel loop: run(i) for every i in [0, n) on team_size(threads)
/// threads, but never more threads than blocks, under a static schedule.  A
/// fault in run(i) is ranked by key(i).  Grids of 0 and 1 blocks run inline:
/// no team to spin up, and a single block's exception propagates directly.
template <typename Key, typename Run>
void launch_keyed(std::size_t n, std::size_t threads, const Key& key, Run&& run) {
  if (n == 0) return;
  if (n == 1) {
    run(std::size_t{0});
    return;
  }
  FirstBlockError err;
  const auto block = [&](std::size_t i) {
    try {
      run(i);
    } catch (...) {
      err.note(key(i));
    }
  };
  const std::size_t team = std::min(team_size(threads), n);
  if (team == 1) {
    for (std::size_t i = 0; i < n; ++i) block(i);
  } else {
#pragma omp parallel for schedule(static) num_threads(static_cast<int>(team))
    for (long long i = 0; i < static_cast<long long>(n); ++i) block(static_cast<std::size_t>(i));
  }
  err.rethrow_if_set();
}

}  // namespace detail

/// Execute `body(block_index)` for every block in [0, grid_size), in
/// parallel on `threads` threads (0: the default team; always one inside a
/// worker).  `body` must only touch state owned by its block (the same
/// independence the CUDA grid requires).  If one or more blocks throw, the
/// remaining blocks still run and the exception from the lowest-indexed
/// faulting block is rethrown to the caller.
template <typename Body>
void launch_blocks(std::size_t grid_size, Body&& body, std::size_t threads = 0) {
  detail::launch_keyed(grid_size, threads, [](std::size_t b) { return b; }, body);
}

/// Execute the grid visiting blocks in the given (permuted) order — the
/// schedule fuzzer's replay engine.  With `parallel`, the team claims
/// positions of `order` under the static schedule, perturbing both the
/// block-to-thread assignment and the completion order relative to the
/// canonical run; otherwise the order is honored exactly, serially.  Either
/// way `body` sees each block index exactly once, so any output difference
/// against the canonical run is order-dependence in the kernel.  The
/// rethrown error is the one of the lowest *block index*, not of the
/// earliest position in `order`.
template <typename Body>
void launch_blocks_in_order(std::span<const std::size_t> order, bool parallel, Body&& body) {
  detail::launch_keyed(
      order.size(), parallel ? 0 : 1, [order](std::size_t i) { return order[i]; },
      [&](std::size_t i) { body(order[i]); });
}

/// 3-D grid variant: `body(bx, by, bz)`, ranked and scheduled by the
/// linear index (bz * grid.y + by) * grid.x + bx.
template <typename Body>
void launch_blocks_3d(Dim3 grid, Body&& body) {
  launch_blocks(grid.count(), [&](std::size_t idx) {
    body(static_cast<std::uint32_t>(idx % grid.x),
         static_cast<std::uint32_t>((idx / grid.x) % grid.y),
         static_cast<std::uint32_t>(idx / (static_cast<std::size_t>(grid.x) * grid.y)));
  });
}

/// Block-reduce over [0, n): `partial(begin, end)` reduces one block of at
/// most 64 Ki elements, the blocks run as one launch, and `merge(acc, part)`
/// folds the partials in block order.  The blocks are fixed, so the
/// partials and their merge order are the same at every team size: a
/// floating-point sum comes out bit-identical at every thread count.  An
/// empty range gives a value-initialized result.
template <typename Partial, typename Merge>
auto reduce_blocks(std::size_t n, const Partial& partial, const Merge& merge) {
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  using R = std::invoke_result_t<const Partial&, std::size_t, std::size_t>;
  std::vector<R> parts(div_ceil(n, kBlock));
  launch_blocks(parts.size(), [&](std::size_t b) {
    const std::size_t begin = b * kBlock;
    parts[b] = partial(begin, std::min(n, begin + kBlock));
  });
  if (parts.empty()) return R{};
  R acc = parts[0];
  for (std::size_t b = 1; b < parts.size(); ++b) acc = merge(acc, parts[b]);
  return acc;
}

}  // namespace szp::sim
