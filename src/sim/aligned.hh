// szp::sim — storage for kernel buffers: cache-line-aligned, or left
// unwritten until the kernel fills it.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace szp::sim {

inline constexpr std::size_t kCacheLine = 64;

/// Minimal C++17 aligned allocator (64-byte lines, AVX-512 friendly).
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new(n * sizeof(T), std::align_val_t{kCacheLine});
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLine});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept { return true; }
};

/// The substrate's device-buffer type: host memory standing in for GPU
/// global memory, aligned so streaming kernels vectorize.
template <typename T>
using device_vector = std::vector<T, AlignedAllocator<T>>;

/// std::allocator whose argument-less construct() default-initializes, so
/// resize() leaves new trivial elements unwritten, like cudaMalloc: a
/// buffer filled from its end (the rANS coder's, Workspace::rans_stream)
/// touches only the pages it fills.
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
