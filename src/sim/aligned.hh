// szp::sim — storage for kernel buffers: cache-line-aligned, left
// unwritten until the kernel fills it, and on 2 MiB pages when large.
//
// One rule for large dense buffers: storage of at least 2 MiB that a
// kernel writes in full is advised for transparent huge pages
// (madvise(MADV_HUGEPAGE)) before its first touch, so a fresh mapping
// faults in 2 MiB pages instead of 4 KiB ones.  Above glibc's mmap
// threshold every large buffer is a fresh mapping whenever a process
// decodes once, so a one-shot call pays that fault path on every byte it
// writes (DESIGN.md §2).  Where the library picks the allocator
// (AlignedAllocator, so sim::device_vector) such storage is also 2 MiB
// aligned; a std::vector the public API returns keeps std::allocator and
// is advised where it is sized (reserve_dense).  The advice is per
// mapping: under THP `never` it changes nothing, and no machine setting is
// touched.
//
// Sparse buffers are never advised: Workspace::rans_stream and
// PredictorProduct::outlier_slots touch a page here and there by design,
// and a huge page would make 2 MiB resident for each 4 KiB they touch.
// They use allocators that never call advise_huge_pages.  This file is the
// only place in src/ that names madvise (tools/lint.sh, phase 1).
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace szp::sim {

inline constexpr std::size_t kCacheLine = 64;
inline constexpr std::size_t kHugePage = std::size_t{2} << 20;

/// Advise the whole 2 MiB regions inside [p, p + bytes) for transparent
/// huge pages.  A no-op below 2 MiB, where MADV_HUGEPAGE is undefined, and
/// when the call fails: the pages then fault 4 KiB at a time, as unadvised.
/// Call it only on storage nothing has touched yet, and only for buffers a
/// kernel writes in full.
inline void advise_huge_pages(void* p, std::size_t bytes) noexcept {
#ifdef MADV_HUGEPAGE
  if (bytes < kHugePage) return;
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t last = (begin + bytes) & ~(kHugePage - 1);
  if (last > first) (void)::madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

/// Grow v's capacity to at least n elements; storage this call allocates is
/// advised for huge pages (advise_huge_pages).  Only for buffers a kernel
/// writes in full: an empty v is advised before any of its bytes is
/// touched, a non-empty one after its elements were copied.
template <typename T, typename A>
void reserve_dense(std::vector<T, A>& v, std::size_t n) {
  if (n <= v.capacity()) return;
  v.reserve(n);
  advise_huge_pages(v.data(), v.capacity() * sizeof(T));
}

/// C++17 aligned allocator: 64-byte lines (AVX-512 friendly), and from
/// 2 MiB up 2 MiB alignment plus the huge-page advice, so every 2 MiB page
/// of the buffer lies inside it.  For dense buffers only.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    const std::size_t bytes = n * sizeof(T);
    void* p = ::operator new(bytes, alignment(bytes));
    advise_huge_pages(p, bytes);
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, alignment(n * sizeof(T)));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept { return true; }

 private:
  static constexpr std::align_val_t alignment(std::size_t bytes) {
    return std::align_val_t{bytes >= kHugePage ? kHugePage : kCacheLine};
  }
};

/// The substrate's device-buffer type: host memory standing in for GPU
/// global memory, aligned so streaming kernels vectorize.
template <typename T>
using device_vector = std::vector<T, AlignedAllocator<T>>;

/// std::allocator whose argument-less construct() default-initializes, so
/// resize() leaves new trivial elements unwritten, like cudaMalloc: a
/// buffer filled from its end (the rANS coder's, Workspace::rans_stream)
/// touches only the pages it fills.  It never advises huge pages.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A vector whose resize() does not zero what it adds.
template <typename T>
using uninit_vector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace szp::sim
