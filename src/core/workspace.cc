#include "core/workspace.hh"

namespace szp {

std::array<std::size_t, Workspace::kTrackedBuffers> Workspace::capacities() const {
  return {
      product.quant.capacity(),           product.outliers.indices.capacity(),
      product.outliers.values.capacity(), product.outlier_slots.capacity(),
      product.row_outliers.capacity(),    product.coefficients.capacity(),
      freq.capacity(),              hist_priv.capacity(),
      huffman.payload.capacity(),   huffman.chunk_offsets.capacity(),
      huffman.gaps.capacity(),      huffman_chunk_bytes.capacity(),
      vle_freq.capacity(),          rans_stream.capacity(),
      codec_bytes.capacity(),       slab_io.capacity(),
  };
}

WorkspaceLease::~WorkspaceLease() {
  if (ws_ != nullptr && pool_ != nullptr) {
    pool_->release(std::move(ws_), caps_at_acquire_);
  }
}

WorkspaceLease WorkspacePool::acquire() {
  std::unique_ptr<Workspace> ws;
  {
    const MutexLock lock(mutex_);
    ++stats_.leases;
    if (!idle_.empty()) {
      ws = std::move(idle_.back());
      idle_.pop_back();
    } else {
      ++stats_.created;
    }
  }
  if (ws == nullptr) ws = std::make_unique<Workspace>();
  const auto caps = ws->capacities();
  return WorkspaceLease(this, std::move(ws), caps);
}

void WorkspacePool::release(std::unique_ptr<Workspace> ws,
                            const std::array<std::size_t, Workspace::kTrackedBuffers>&
                                caps_at_acquire) {
  const auto caps_now = ws->capacities();
  std::size_t grew = 0;
  for (std::size_t i = 0; i < caps_now.size(); ++i) {
    if (caps_now[i] > caps_at_acquire[i]) ++grew;
  }
  const MutexLock lock(mutex_);
  stats_.grow_events += grew;
  idle_.push_back(std::move(ws));
}

WorkspacePool::Stats WorkspacePool::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

}  // namespace szp
