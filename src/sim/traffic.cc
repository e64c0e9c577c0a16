// szp::sim::traffic — implementation of the static traffic analyzer.
//
// Volume derivation walks every block of the launch geometry through the
// per-block range evaluator the containment validator builds its covers
// from (contract::for_each_range), but sums range lengths and counts
// touched 128-byte DRAM segments per contiguous range.  The segment
// count is what makes the coalescing estimate: a unit-stride window of W
// bytes touches ceil(W/128)+O(1) segments (score ~1.0), while a strided
// family of narrow windows drags a whole segment per window (score ~eb/128).
//
// validate_traffic() is the dynamic side of the bargain: per buffer and
// direction, the sum over blocks of the observed union-normalized footprint
// must stay within the statically derived volume.  Affine clauses are
// already covered block-by-block by validate_observed, so the check bites
// exactly where the static table is on its honor — the `*_dyn` bounds.
#include "sim/traffic.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>

#include "sim/check.hh"

namespace szp::sim::traffic {

namespace {

using contract::Clause;
using contract::ClauseKind;

std::map<std::string, KernelTraffic>& registry() {
  static std::map<std::string, KernelTraffic> reg;
  return reg;
}

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

/// Segment bytes dragged through DRAM by one contiguous element range.
std::uint64_t segment_bytes(std::uint64_t byte_lo, std::uint64_t byte_hi) {
  if (byte_hi <= byte_lo) return 0;
  const std::uint64_t first = byte_lo / kSegmentBytes;
  const std::uint64_t last = (byte_hi - 1) / kSegmentBytes;
  return (last - first + 1) * kSegmentBytes;
}

/// Accumulator for one clause's contribution to one buffer direction.
struct Volume {
  std::uint64_t bytes = 0;
  std::uint64_t seg_bytes = 0;
};

/// Sum one clause's element ranges over every block of the geometry
/// (kWindow / kBox only).  Ranges are clamped to [0, elems) — out-of-bounds
/// declarations are the prover's complaint, not a traffic source.
Volume affine_volume(const Clause& cl, const contract::Geom& geom, std::uint64_t elems,
                     std::uint32_t eb) {
  Volume v;
  const auto n = static_cast<std::int64_t>(elems);
  for (std::int64_t b = 0; b < geom.grid; ++b) {
    contract::for_each_range(cl, geom, b, n, [&](std::int64_t lo, std::int64_t hi) {
      lo = std::max<std::int64_t>(lo, 0);
      hi = std::min(hi, n);
      if (hi <= lo) return;
      v.bytes += static_cast<std::uint64_t>(hi - lo) * eb;
      v.seg_bytes += segment_bytes(static_cast<std::uint64_t>(lo) * eb,
                                   static_cast<std::uint64_t>(hi) * eb);
    });
  }
  return v;
}

double ratio(std::uint64_t useful, std::uint64_t segs) {
  return segs == 0 ? 1.0 : static_cast<double>(useful) / static_cast<double>(segs);
}

/// Compute-side efficiency used by the roofline ridge point; matches the
/// compute_eff the modeled-time projection applies (perf_model.cc).
constexpr double kComputeEff = 0.35;

struct IntensityEntry {
  const char* kernel;
  double flops_per_byte;
};

/// Static flops-per-DRAM-byte estimates per kernel, consistent with the
/// flops the wrappers report in their KernelCost records divided by the
/// contract-derived byte volumes at representative sizes.  Kernels whose
/// inner loop is a bit-serial chain (Huffman/LZ decode, match search) sit
/// right of the V100 ridge (~5.5 flop/B at full coalescing) — the reason
/// the gap-array decode work exists; everything else is left of it, which
/// is the paper's bandwidth-bound claim.
constexpr IntensityEntry kIntensity[] = {
    {"device_scan/tile_reduce", 0.25},
    {"device_scan/tile_scan", 0.25},
    {"histogram/merge", 0.25},
    {"histogram/tile_bins", 1.0},
    {"huffman_decode", 60.0},
    {"huffman_encode/chunk_sizes", 1.0},
    {"huffman_encode/deflate", 2.5},
    {"lorenzo_construct", 0.6},
    {"lorenzo_reconstruct", 0.5},
    {"lorenzo_reconstruct_coarse", 0.7},
    {"lz77/freq_merge", 0.25},
    {"lz77/token_freq", 1.0},
    {"lz77/tokenize", 20.0},
    {"lzh/decode", 30.0},
    {"lzh/encode", 2.5},
    {"lzr/expand", 0.5},
    {"lzr/token_split", 0.5},
    {"regression_construct", 0.8},
    {"regression_reconstruct", 0.6},
    {"reduce_by_key/tile_runs", 1.0},
    {"rle_decode/expand", 0.5},
    {"scatter_add", 0.25},
    {"zfp_compress", 4.0},
    {"zfp_decompress", 4.0},
};

}  // namespace

double BufVolume::coalescing_read() const { return ratio(bytes_read, seg_bytes_read); }
double BufVolume::coalescing_write() const { return ratio(bytes_written, seg_bytes_written); }
double BufVolume::coalescing() const {
  return ratio(bytes_read + bytes_written, seg_bytes_read + seg_bytes_written);
}

std::uint64_t LaunchTraffic::bytes_read() const {
  std::uint64_t sum = 0;
  for (const BufVolume& b : buffers) sum += b.bytes_read;
  return sum;
}

std::uint64_t LaunchTraffic::bytes_written() const {
  std::uint64_t sum = 0;
  for (const BufVolume& b : buffers) sum += b.bytes_written;
  return sum;
}

double LaunchTraffic::coalescing() const {
  std::uint64_t useful = 0, segs = 0;
  for (const BufVolume& b : buffers) {
    useful += b.bytes_read + b.bytes_written;
    segs += b.seg_bytes_read + b.seg_bytes_written;
  }
  return ratio(useful, segs);
}

bool LaunchTraffic::dynamic() const {
  for (const BufVolume& b : buffers) {
    if (b.dynamic) return true;
  }
  return false;
}

const BufVolume* LaunchTraffic::find(std::string_view buffer) const {
  for (const BufVolume& b : buffers) {
    if (b.buffer == buffer) return &b;
  }
  return nullptr;
}

LaunchTraffic analyze(const contract::Contract& con, const contract::Geom& geom,
                      const std::vector<contract::BufMeta>& bufs) {
  LaunchTraffic t;
  t.buffers.resize(bufs.size());
  for (std::size_t i = 0; i < bufs.size(); ++i) t.buffers[i].buffer = bufs[i].name;

  for (const Clause& cl : con.clauses) {
    if (cl.kind == ClauseKind::kHostSink) {
      // Host-owned output (bit writers, size-capped growing vectors): a
      // declared worst-case byte volume with no registered buffer behind
      // it.  Booked once per launch as a dynamic contiguous store, appended
      // after the registered-buffer rows so their indices stay aligned with
      // the launch's BufMeta order.
      BufVolume sink;
      sink.buffer = cl.buf;
      sink.dynamic = true;
      sink.host_sink = true;
      sink.bytes_written = cl.dyn_bound >= 0 ? static_cast<std::uint64_t>(cl.dyn_bound) : 0;
      sink.seg_bytes_written = segment_bytes(0, sink.bytes_written);
      t.buffers.push_back(sink);
      continue;
    }
    std::size_t bi = bufs.size();
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      if (std::strcmp(cl.buf, bufs[i].name) == 0) {
        bi = i;
        break;
      }
    }
    if (bi == bufs.size()) continue;  // clause names nothing registered
    BufVolume& out = t.buffers[bi];
    const std::uint64_t elems = bufs[bi].elems;
    const std::uint32_t eb = bufs[bi].elem_bytes;
    const bool is_read = cl.access != contract::AccessKind::kWrite;
    const bool is_write = cl.access != contract::AccessKind::kRead;

    Volume v;
    switch (cl.kind) {
      case ClauseKind::kWindow:
      case ClauseKind::kBox:
        v = affine_volume(cl, geom, elems, eb);
        break;
      case ClauseKind::kAll: {
        // Broadcast: every block pulls the whole buffer.
        const std::uint64_t per_block = elems * eb;
        v.bytes = per_block * static_cast<std::uint64_t>(geom.grid);
        v.seg_bytes = segment_bytes(0, per_block) * static_cast<std::uint64_t>(geom.grid);
        break;
      }
      case ClauseKind::kDynamic: {
        // Data-dependent: the declared worst-case element volume across the
        // whole launch (the whole buffer when unbounded), counted once.
        // Layout unknown — scored as contiguous, flagged `dyn` in tables.
        const std::uint64_t bound =
            cl.dyn_bound >= 0 ? static_cast<std::uint64_t>(cl.dyn_bound) : elems;
        v.bytes = bound * eb;
        v.seg_bytes = segment_bytes(0, v.bytes);
        out.dynamic = true;
        if (cl.dyn_bound < 0) {
          if (is_read) out.unbounded_read = true;
          if (is_write) out.unbounded_write = true;
        }
        break;
      }
      case ClauseKind::kHostSink:
        break;  // handled above, never reaches the registered-buffer path
    }
    if (is_read) {
      out.bytes_read += v.bytes;
      out.seg_bytes_read += v.seg_bytes;
    }
    if (is_write) {
      out.bytes_written += v.bytes;
      out.seg_bytes_written += v.seg_bytes;
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Registry and tables.
// ---------------------------------------------------------------------------

void record(const char* kernel, const LaunchTraffic& t) {
  std::uint64_t sr = 0, sw = 0;
  for (const BufVolume& b : t.buffers) {
    sr += b.seg_bytes_read;
    sw += b.seg_bytes_written;
  }
  const std::lock_guard<std::mutex> lock(registry_mutex());
  KernelTraffic& kt = registry()[kernel];
  kt.kernel = kernel;
  ++kt.launches;
  kt.bytes_read += t.bytes_read();
  kt.bytes_written += t.bytes_written();
  kt.seg_bytes_read += sr;
  kt.seg_bytes_written += sw;
  kt.dynamic = kt.dynamic || t.dynamic();
}

double KernelTraffic::coalescing() const {
  return ratio(bytes_read + bytes_written, seg_bytes_read + seg_bytes_written);
}

std::vector<KernelTraffic> registry_snapshot() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<KernelTraffic> out;
  out.reserve(registry().size());
  for (const auto& [name, kt] : registry()) out.push_back(kt);
  return out;  // std::map iterates sorted by kernel name
}

void reset_registry() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  registry().clear();
}

std::string traffic_table_text() {
  const std::vector<KernelTraffic> rows = registry_snapshot();
  std::ostringstream os;
  std::uint64_t total_read = 0, total_written = 0;
  for (const KernelTraffic& r : rows) {
    total_read += r.bytes_read;
    total_written += r.bytes_written;
  }
  os << "static traffic: " << rows.size() << " kernel(s), " << total_read << " byte(s) read, "
     << total_written << " byte(s) written (contract-derived)\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-28s %9s %14s %14s %9s %4s\n", "kernel", "launches",
                "read-bytes", "write-bytes", "coalesce", "dyn");
  os << line;
  for (const KernelTraffic& r : rows) {
    std::snprintf(line, sizeof(line), "  %-28s %9" PRIu64 " %14" PRIu64 " %14" PRIu64 " %9.2f %4s\n",
                  r.kernel.c_str(), r.launches, r.bytes_read, r.bytes_written, r.coalescing(),
                  r.dynamic ? "dyn" : "");
    os << line;
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Roofline.
// ---------------------------------------------------------------------------

double kernel_intensity(std::string_view kernel) {
  for (const IntensityEntry& e : kIntensity) {
    if (kernel == e.kernel) return e.flops_per_byte;
  }
  return 0.5;  // unknown kernels: streaming, bandwidth-bound null hypothesis
}

RooflineRow classify(const DeviceSpec& dev, const KernelTraffic& t) {
  RooflineRow row;
  row.kernel = t.kernel;
  row.intensity = kernel_intensity(t.kernel);
  row.coalescing = t.coalescing();
  const double effective_bw = dev.mem_bw_gbps * 1e9 * std::max(row.coalescing, 1e-6);
  row.ridge = dev.fp32_tflops * 1e12 * kComputeEff / effective_bw;
  row.compute_bound = row.intensity > row.ridge;
  return row;
}

std::string roofline_table_text(const DeviceSpec& dev) {
  const std::vector<KernelTraffic> rows = registry_snapshot();
  std::ostringstream os;
  const double base_ridge = dev.fp32_tflops * 1e12 * kComputeEff / (dev.mem_bw_gbps * 1e9);
  char line[160];
  std::snprintf(line, sizeof(line),
                "roofline (%s): ridge %.2f flop/B at full coalescing, %.0f GB/s peak\n",
                dev.name.c_str(), base_ridge, dev.mem_bw_gbps);
  os << line;
  std::snprintf(line, sizeof(line), "  %-28s %9s %9s %7s  %s\n", "kernel", "flop/B", "coalesce",
                "ridge", "bound");
  os << line;
  for (const KernelTraffic& t : rows) {
    const RooflineRow r = classify(dev, t);
    std::snprintf(line, sizeof(line), "  %-28s %9.2f %9.2f %7.2f  %s\n", r.kernel.c_str(),
                  r.intensity, r.coalescing, r.ridge,
                  r.compute_bound ? "compute" : "bandwidth");
    os << line;
  }
  return os.str();
}

}  // namespace szp::sim::traffic

// ---------------------------------------------------------------------------
// Dynamic cross-validation (declared in check.hh's detail namespace).
// ---------------------------------------------------------------------------

namespace szp::sim::checked::detail {

void validate_traffic(const char* kernel, const traffic::LaunchTraffic& predicted,
                      const std::vector<BufMeta>& bufs, const std::vector<BlockLog>& logs) {
  // Observed bytes per (buffer, direction): per block, union-normalize the
  // logged intervals (the log coalesces only adjacent records, so repeats
  // would double-count), then sum across blocks — re-reads across blocks are
  // real DRAM traffic, re-reads within one are assumed cached.
  struct Range {
    std::uint64_t lo, hi;
  };
  const std::size_t nb = bufs.size();
  std::vector<std::uint64_t> observed(nb * 2, 0);
  std::vector<std::vector<Range>> scratch(nb * 2);
  for (const BlockLog& log : logs) {
    if (log.acc.empty()) continue;
    for (auto& v : scratch) v.clear();
    for (const TaggedInterval& t : log.acc) {
      scratch[t.buf * 2 + (t.write ? 1 : 0)].push_back({t.lo, t.hi});
    }
    for (std::size_t s = 0; s < scratch.size(); ++s) {
      auto& v = scratch[s];
      if (v.empty()) continue;
      std::sort(v.begin(), v.end(), [](const Range& a, const Range& b) { return a.lo < b.lo; });
      std::uint64_t lo = v[0].lo, hi = v[0].hi;
      for (std::size_t i = 1; i < v.size(); ++i) {
        if (v[i].lo <= hi) {
          hi = std::max(hi, v[i].hi);
        } else {
          observed[s] += hi - lo;
          lo = v[i].lo;
          hi = v[i].hi;
        }
      }
      observed[s] += hi - lo;
    }
  }

  for (std::size_t i = 0; i < nb; ++i) {
    const traffic::BufVolume& p = predicted.buffers[i];
    if (!p.unbounded_read && observed[i * 2] > p.bytes_read) {
      append_traffic_finding({kernel, bufs[i].name, observed[i * 2], p.bytes_read, false});
    }
    if (!p.unbounded_write && observed[i * 2 + 1] > p.bytes_written) {
      append_traffic_finding({kernel, bufs[i].name, observed[i * 2 + 1], p.bytes_written, true});
    }
  }
}

}  // namespace szp::sim::checked::detail
