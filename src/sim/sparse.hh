// szp::sim — the sparse outlier section and its kernels' costs.  cuSZ+
// gathers outliers with the cuSPARSE dense-to-sparse kernel (paper §V-C.2)
// and scatters them back on decode; gather_cost and scatter_cost model
// those two kernels.  On the host every predictor writes the section
// without a dense array (core/predictor/product.hh), and only the cuSZ
// baseline's coarse reconstruction still scatters it into one
// (scatter_add).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/check.hh"
#include "sim/profile.hh"

namespace szp::sim {

template <typename T, typename Index = std::uint64_t>
struct SparseVector {
  std::vector<Index> indices;
  std::vector<T> values;

  [[nodiscard]] std::size_t nnz() const { return indices.size(); }
};

/// Scatter-add sparse values into a dense array (the decompression-side
/// outlier fusion: quant-code residuals ⊕ outlier residuals).
template <typename T, typename Acc, typename Index>
void scatter_add(const SparseVector<T, Index>& sparse, std::span<Acc> dense) {
  // One virtual block per nonzero; duplicate indices in the sparse vector
  // would be a genuine scatter race, which the checker flags via the inout
  // registration of `dense`.
  checked::launch("scatter_add", sparse.nnz(),
                  checked::bufs(checked::in(std::span<const Index>(sparse.indices), "indices"),
                                checked::in(std::span<const T>(sparse.values), "values"),
                                checked::inout(dense, "dense")),
                  contract::contract(contract::reads("indices", contract::b(), 1),
                                     contract::reads("values", contract::b(), 1),
                                     // Each nonzero touches exactly one dense
                                     // element: nnz bounds the scattered volume.
                                     contract::updates_dyn(
                                         "dense", static_cast<std::int64_t>(sparse.nnz()))),
                  [](std::size_t i, const auto& vidx, const auto& vval, const auto& vdense) {
    vdense[static_cast<std::size_t>(vidx[i])] += static_cast<Acc>(vval[i]);
  });
}

[[nodiscard]] inline KernelCost gather_cost(std::size_t n, std::size_t elem_bytes,
                                            std::size_t nnz, std::size_t index_bytes) {
  KernelCost c;
  c.bytes_read = n * elem_bytes;
  c.bytes_written = nnz * (elem_bytes + index_bytes);
  c.flops = n;
  c.parallel_items = n;
  c.pattern = AccessPattern::kScattered;
  c.launches = 3;  // count, scan, fill
  return c;
}

[[nodiscard]] inline KernelCost scatter_cost(std::size_t nnz, std::size_t elem_bytes,
                                             std::size_t index_bytes) {
  KernelCost c;
  c.bytes_read = nnz * (elem_bytes + index_bytes);
  c.bytes_written = nnz * elem_bytes;
  c.flops = nnz;
  c.parallel_items = nnz > 0 ? nnz : 1;
  c.pattern = AccessPattern::kScattered;
  return c;
}

}  // namespace szp::sim
