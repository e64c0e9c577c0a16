// Test helper: the OpenMP thread budget for one scope, so a test can run the
// same launch at several team sizes (a no-op without OpenMP).
#pragma once

#ifdef _OPENMP
#include <omp.h>
#endif

namespace szp::test {

class ScopedThreads {
 public:
  explicit ScopedThreads([[maybe_unused]] int threads) {
#ifdef _OPENMP
    saved_ = omp_get_max_threads();
    omp_set_num_threads(threads);
#endif
  }
  ~ScopedThreads() {
#ifdef _OPENMP
    omp_set_num_threads(saved_);
#endif
  }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int saved_ = 1;
};

}  // namespace szp::test
