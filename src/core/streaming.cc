#include "core/streaming.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/archive.hh"
#include "core/compressor_detail.hh"
#include "core/error.hh"
#include "core/io/io.hh"
#include "core/metrics.hh"
#include "core/serialize.hh"
#include "sim/aligned.hh"
#include "sim/launch.hh"
#include "sim/timer.hh"

namespace szp {

namespace {

constexpr std::uint32_t kContainerMagic = 0x43505A53;  // "SZPC"
constexpr std::uint16_t kContainerVersion = 1;

/// Planning allowance per parked slab archive beyond its input bytes
/// (archive header, codebook, chunk metadata).  The budget model charges a
/// parked archive at slab_bytes + this; the residency meter reports what
/// actually happened.
constexpr std::size_t kSlabArchiveOverhead = 4096;

/// The worker count a memory budget sizes slabs for, whatever width the run
/// has: the slab split is part of the container bytes, so it must not
/// follow the host.  Four, because thinner slabs each carry their own
/// codebook and tables: on a 43 MB Nyx f32 field under a 16 MiB budget the
/// ratio was 51.1, 51.6, 52.1 and 49.5 for plans sized to 1, 2, 4 and 8
/// workers.  A budget that fits this model fits every narrower run too.
constexpr std::size_t kPlanWorkers = 4;

/// Workers a run over `items` starts from: cfg.workers, or the launch
/// substrate's default team (the OpenMP thread budget) when that is 0,
/// capped by the item count.  A run nested under an outer fan-out
/// (compress_many) gets one, so the fan-out stays explicitly one-level.
std::size_t resolve_workers(const StreamingConfig& cfg, std::size_t items) {
  const std::size_t want = cfg.workers != 0 ? cfg.workers : sim::thread_budget();
  return sim::team_size(std::max<std::size_t>(1, std::min(want, items)));
}

/// Slab partition along the slowest axis.  It depends on the field, its
/// dtype, max_slab_elems and memory_budget only — never on the workers — so
/// a container reproduces on any machine at any width.
struct SlabPlan {
  std::size_t slow_extent;      ///< the slowest axis's length
  std::size_t plane_elems;      ///< elements per unit of the slowest axis
  std::size_t thickness;        ///< slowest-axis units per slab
  std::size_t count;            ///< number of slabs
};

/// Each slab holds at most max_slab_elems.  A budget also caps the slab
/// bytes S = thickness · plane_bytes for kPlanWorkers workers, each staging
/// one slab, and a window of 2·kPlanWorkers parked archives (DESIGN.md §2.3):
///
///   P·S + 2P·(S + overhead) <= budget,  P = kPlanWorkers
///
/// never below one plane; fit_run() refuses a budget that one plane misses.
SlabPlan plan_slabs(const Extents& ext, const StreamingConfig& cfg, std::size_t elem_size) {
  SlabPlan p{};
  switch (ext.rank) {
    case 1: p.slow_extent = ext.nx; p.plane_elems = 1; break;
    case 2: p.slow_extent = ext.ny; p.plane_elems = ext.nx; break;
    case 3: p.slow_extent = ext.nz; p.plane_elems = ext.nx * ext.ny; break;
    default: throw std::invalid_argument("StreamingCompressor: rank must be 1, 2, or 3");
  }
  if (p.plane_elems > cfg.max_slab_elems) {
    throw std::invalid_argument(
        "StreamingCompressor: a single plane exceeds max_slab_elems; raise the limit");
  }
  p.thickness = std::max<std::size_t>(1, cfg.max_slab_elems / p.plane_elems);
  if (cfg.memory_budget != 0) {
    const std::size_t fixed = 2 * kPlanWorkers * kSlabArchiveOverhead;
    const std::size_t room = cfg.memory_budget > fixed ? cfg.memory_budget - fixed : 0;
    p.thickness = std::min(
        p.thickness,
        std::max<std::size_t>(1, room / (3 * kPlanWorkers * p.plane_elems * elem_size)));
  }
  // A thickness past the slow extent is one slab; clamping first keeps the
  // count below from wrapping (max_slab_elems near SIZE_MAX on a 1-D field).
  p.thickness = std::min(p.thickness, p.slow_extent);
  p.count = (p.slow_extent + p.thickness - 1) / p.thickness;
  return p;
}

/// A run's width: pipeline workers, and the window of finished items they
/// may park ahead of the in-order consumer.
struct RunWidth {
  std::size_t workers;
  std::size_t window;
};

/// Fit a run over `items` to cfg.memory_budget, compress and decode alike:
/// start from resolve_workers() with a window of 2W, and halve W until
///
///   W·produce + 2W·park <= budget
///
/// where `produce` bounds what one in-flight item holds and `park` what one
/// finished item holds awaiting its turn.  The last resort is one worker
/// with a window of one; a budget below even that is refused with a
/// ConfigError (`for_what` names the direction).  An unbudgeted run keeps
/// W and 2W.
RunWidth fit_run(const StreamingConfig& cfg, std::size_t items, std::size_t produce,
                 std::size_t park, const char* for_what) {
  const std::size_t budget = cfg.memory_budget;
  for (std::size_t w = resolve_workers(cfg, items);; w /= 2) {
    if (budget == 0 || w * (produce + 2 * park) <= budget) return {w, 2 * w};
    if (w == 1) break;
  }
  if (produce + park <= budget) return {1, 1};
  throw ConfigError("StreamingCompressor: memory budget " + std::to_string(budget) +
                    " bytes is too small " + for_what + ": one slab in flight needs about " +
                    std::to_string(produce + park) + " bytes");
}

Extents slab_extents(const Extents& ext, std::size_t len) {
  switch (ext.rank) {
    case 1: return Extents::d1(len);
    case 2: return Extents::d2(len, ext.nx);
    default: return Extents::d3(len, ext.ny, ext.nx);
  }
}

/// High-water accounting for bytes the pipeline itself holds resident:
/// staging buffers, parked items awaiting in-order consumption (on decode,
/// every slab buffer the run has created, parked or idle), retained sink
/// bytes.  Lock-free so produce-side charging never contends with the
/// engine mutex.
struct ResidencyMeter {
  std::atomic<std::size_t> current{0};
  std::atomic<std::size_t> peak{0};

  void add(std::size_t n) {
    if (n == 0) return;
    const std::size_t cur = current.fetch_add(n, std::memory_order_relaxed) + n;
    std::size_t p = peak.load(std::memory_order_relaxed);
    while (cur > p && !peak.compare_exchange_weak(p, cur, std::memory_order_relaxed)) {
    }
  }
  void sub(std::size_t n) {
    if (n != 0) current.fetch_sub(n, std::memory_order_relaxed);
  }
};

/// Read/write wall-clock attribution, accumulated by the produce/consume
/// closures (the engine only times whole produce/consume calls).  One lock
/// per slab is noise next to a slab compress.
struct PhaseClock {
  std::mutex m;
  double read = 0.0;
  double write = 0.0;

  void add_read(double s) {
    const std::lock_guard<std::mutex> lk(m);
    read += s;
  }
  void add_write(double s) {
    const std::lock_guard<std::mutex> lk(m);
    write += s;
  }
};

/// Shared state of the bounded producer/consumer pipeline.  Workers claim
/// item indices from `next` (dynamic schedule); finished items park in
/// `done` until the cooperative packer role drains them into the consumer
/// strictly in index order.  `next < frontier + window` bounds how far
/// production runs ahead of consumption, capping the finished-item backlog
/// held in memory.
template <typename Item>
struct EngineState {
  std::mutex m;
  std::condition_variable cv;
  std::size_t next = 0;       ///< next item index to claim
  std::size_t frontier = 0;   ///< next item index to consume
  bool packing = false;       ///< a worker currently holds the packer role
  bool stop = false;          ///< error seen: stop claiming, wind down
  std::size_t err_slab = std::numeric_limits<std::size_t>::max();
  std::exception_ptr err;
  std::vector<Item> done;
  std::vector<char> ready;
  double produce_seconds = 0.0;  ///< summed across workers (can exceed wall)
  double consume_seconds = 0.0;

  /// Record item `s`'s fault (lock held) and wind down.  The lowest index
  /// wins: claims are monotonic, so every item below a faulting one was
  /// claimed and ran to completion — the winner is deterministic regardless
  /// of interleaving.
  void fail(std::size_t s, std::exception_ptr e) {
    if (s < err_slab) {
      err_slab = s;
      err = std::move(e);
    }
    stop = true;
  }
};

struct PipelineSeconds {
  double produce = 0.0;
  double consume = 0.0;
};

/// The bounded ordered pipeline (DESIGN.md §2.2/§2.3) — the one slab
/// scheduler, generalized over what flows through it: compress runs it with
/// Item = Compressed (produce = read + compress a slab, consume = pack it),
/// decode in memory and out of core with Item = a decoded slab (produce =
/// read + decode, consume = emit raw bytes), compress_many with Item = one
/// field's container.  Every worker alternates between claiming the next
/// index and producing it, or — when the lowest unconsumed item is finished
/// and nobody else holds the packer role — draining consecutive finished
/// items through `consume` in index order.  On faults the lowest-index
/// error wins deterministically (claims are monotonic, so every item below
/// a faulting one ran to completion).  A single worker runs the same loop
/// on the calling thread, which interleaves produce and consume item by
/// item, so it never holds more than one finished item.
template <typename Item, typename MakeCtx, typename Produce, typename Consume>
PipelineSeconds run_ordered_pipeline(std::size_t count, std::size_t workers, std::size_t window,
                                     const MakeCtx& make_ctx, const Produce& produce,
                                     const Consume& consume) {
  EngineState<Item> st;
  st.done.resize(count);
  st.ready.assign(count, 0);
  window = std::max<std::size_t>(1, window);

  const auto worker = [&]() {
    try {
      auto ctx = make_ctx();
      std::unique_lock<std::mutex> lk(st.m);
      for (;;) {
        if (st.stop) return;
        if (!st.packing && st.frontier < count && st.ready[st.frontier] != 0) {
          // Packer role: exclusive by the `packing` flag, in index order by
          // the frontier — so consume() needs no further synchronization.
          st.packing = true;
          while (!st.stop && st.frontier < count && st.ready[st.frontier] != 0) {
            const std::size_t s = st.frontier;
            Item item = std::move(st.done[s]);
            lk.unlock();
            sim::Timer t;
            std::exception_ptr fault;
            try {
              consume(s, std::move(item));
            } catch (...) {
              fault = std::current_exception();
            }
            const double dt = t.seconds();
            lk.lock();
            if (fault) {
              st.fail(s, fault);
            } else {
              st.consume_seconds += dt;
              ++st.frontier;
            }
            st.cv.notify_all();  // the window advanced (or we are stopping)
          }
          st.packing = false;
          continue;
        }
        if (!st.stop && st.next < count && st.next < st.frontier + window) {
          const std::size_t s = st.next++;
          lk.unlock();
          sim::Timer t;
          std::exception_ptr fault;
          Item item;
          try {
            item = produce(ctx, s);
          } catch (...) {
            fault = std::current_exception();
          }
          const double dt = t.seconds();
          lk.lock();
          if (fault) {
            st.fail(s, fault);
          } else {
            st.produce_seconds += dt;
            st.done[s] = std::move(item);
            st.ready[s] = 1;
          }
          st.cv.notify_all();
          continue;
        }
        if (st.frontier >= count) return;  // everything consumed
        st.cv.wait(lk, [&] {
          return st.stop || st.frontier >= count ||
                 (!st.packing && st.ready[st.frontier] != 0) ||
                 (st.next < count && st.next < st.frontier + window);
        });
      }
    } catch (...) {
      // Context creation (e.g. lease acquisition) failed; surface it unless
      // an item already recorded a more specific fault.
      const std::lock_guard<std::mutex> lk(st.m);
      if (!st.err) st.err = std::current_exception();
      st.stop = true;
      st.cv.notify_all();
    }
  };

  sim::launch_blocks(workers, [&](std::size_t) { worker(); }, workers);

  if (st.err) std::rethrow_exception(st.err);
  return {st.produce_seconds, st.consume_seconds};
}

/// Fill the run's phase split, ratio and residency high-water mark once
/// both byte counts are known.
void finish_stats(StreamingStats& stats, const PipelineSeconds& t, const PhaseClock& clock,
                  const ResidencyMeter& meter) {
  stats.phases.read_seconds = clock.read;
  stats.phases.write_seconds = clock.write;
  stats.phases.compress_seconds = std::max(0.0, t.produce - clock.read);
  stats.phases.pack_seconds = t.consume;
  stats.ratio = compression_ratio(stats.original_bytes, stats.compressed_bytes);
  stats.peak_resident_bytes = meter.peak.load(std::memory_order_relaxed);
}

/// Per-worker pipeline context: one workspace leased for the worker's
/// whole run, compress and decode alike.  Its tracked slab_io buffer stages
/// slabs read from viewless sources, so steady-state out-of-core runs
/// allocate nothing.
struct WorkerCtx {
  WorkspaceLease lease;
  std::size_t charged = 0;  ///< staging capacity already on the meter
};

/// Viewless ingest: read `len` bytes at `pos` into the worker's staging
/// buffer, timing the read and charging staging growth to the meter.
std::span<const std::uint8_t> stage_read(WorkerCtx& ctx, const io::FieldSource& src,
                                         std::size_t pos, std::size_t len, ResidencyMeter& meter,
                                         PhaseClock& clock) {
  std::vector<std::uint8_t>& buf = ctx.lease->slab_io;
  sim::Timer rt;
  buf.resize(len);
  src.read_at(pos, std::span<std::uint8_t>(buf.data(), len));
  clock.add_read(rt.seconds());
  if (buf.capacity() > ctx.charged) {
    meter.add(buf.capacity() - ctx.charged);
    ctx.charged = buf.capacity();
  }
  return {buf.data(), len};
}

StreamingStats compress_stream_impl(const StreamingConfig& cfg, const Compressor& compressor,
                                    io::FieldSource& src, DType dtype, const Extents& ext,
                                    io::ContainerSink& sink) {
  const std::size_t esize = dtype_size(dtype);
  const std::size_t total = ext.count();
  if (total == 0) {
    throw std::invalid_argument("StreamingCompressor::compress: data must match extents");
  }
  if (src.size_bytes() != total * esize) {
    throw std::invalid_argument("StreamingCompressor::compress: source " + src.name() +
                                " holds " + std::to_string(src.size_bytes()) +
                                " bytes, extents declare " + std::to_string(total * esize));
  }
  const SlabPlan plan = plan_slabs(ext, cfg, esize);
  const std::size_t slab_bytes = plan.thickness * plan.plane_elems * esize;
  const RunWidth run = fit_run(cfg, plan.count, slab_bytes, slab_bytes + kSlabArchiveOverhead,
                               "to compress this field");

  StreamingStats stats;
  stats.workers_used = run.workers;
  stats.original_bytes = src.size_bytes();

  const std::span<const std::uint8_t> view = src.view();
  ResidencyMeter meter;
  PhaseClock clock;

  const auto slab_at = [&](std::size_t s) {
    const std::size_t begin = s * plan.thickness;
    SlabInfo info;
    info.extents =
        slab_extents(ext, std::min(plan.thickness, plan.slow_extent - begin));
    info.offset = begin * plan.plane_elems;
    return info;
  };
  // Slab s's bytes: a span of the source's view, or else read into the
  // worker's metered staging buffer, the read timed on `reads`.
  const auto slab_bytes_at = [&](WorkerCtx& ctx, std::size_t s, PhaseClock& reads) {
    const SlabInfo at = slab_at(s);
    const std::size_t pos = at.offset * esize;
    const std::size_t len = at.extents.count() * esize;
    return !view.empty() ? view.subspan(pos, len) : stage_read(ctx, src, pos, len, meter, reads);
  };

  // Resolve a relative/PSNR bound against the whole field once, so every
  // slab carries the same absolute bound.  The pre-pass scans slab by slab
  // (a viewless source through the staging buffer, one slab resident at a
  // time) and keeps each slab's range, which that slab's compress takes in
  // place of a scan of its own: min and max are exact under any partition,
  // so the bytes are those of a slab that scanned itself.  An absolute
  // bound needs no pre-pass — each slab scans itself for its margin and
  // finiteness — so no serial read runs before the workers start.
  sim::Timer phase_timer;
  CompressConfig slab_cfg = cfg.base;
  std::vector<ValueRange> slab_ranges;
  if (cfg.base.eb.mode != EbMode::kAbsolute) {
    slab_ranges.resize(plan.count);
    {
      WorkerCtx ctx{view.empty() ? compressor.lease_workspace() : WorkspaceLease{}, 0};
      PhaseClock scan_reads;  // the pre-pass's reads count as range time, not io
      for (std::size_t s = 0; s < plan.count; ++s) {
        slab_ranges[s] = FieldView(slab_bytes_at(ctx, s, scan_reads), dtype).visit([](auto elems) {
          return ValueRange::of(elems);
        });
      }
      meter.sub(ctx.charged);  // the staging buffer goes back to the pool
    }
    ValueRange range = slab_ranges[0];
    for (const ValueRange& r : slab_ranges) range = ValueRange::merge(range, r);
    if (!range.finite) {
      throw std::invalid_argument("StreamingCompressor::compress: non-finite values");
    }
    slab_cfg.eb = ErrorBound::absolute(cfg.base.eb.resolve(range.span()));
  }
  stats.phases.range_seconds = phase_timer.seconds();
  stats.eb_abs = slab_cfg.eb.value;  // absolute by now, either way

  // The container header.  Sink writes happen only on the packer role's
  // thread (or here, before any worker starts), so the container bytes are
  // identical to a serial in-memory run by construction.
  {
    ByteWriter w;
    w.put(kContainerMagic);
    w.put(kContainerVersion);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(ext.rank));
    w.put<std::uint8_t>(static_cast<std::uint8_t>(dtype));
    w.put<std::uint64_t>(ext.nx);
    w.put<std::uint64_t>(ext.ny);
    w.put<std::uint64_t>(ext.nz);
    w.put<std::uint64_t>(plan.count);
    const auto header = w.take();
    sink.write(header);
    if (sink.retains_bytes()) meter.add(header.size());
  }

  // Every worker leases one workspace for its whole run.
  const auto make_ctx = [&] { return WorkerCtx{compressor.lease_workspace(), 0}; };

  const auto produce = [&](WorkerCtx& ctx, std::size_t s) -> Compressed {
    Compressed slab =
        detail::compress(slab_cfg, FieldView(slab_bytes_at(ctx, s, clock), dtype),
                         slab_at(s).extents, *ctx.lease,
                         slab_ranges.empty() ? nullptr : &slab_ranges[s]);
    meter.add(slab.bytes.size());  // parked until the packer drains it
    return slab;
  };

  const auto consume = [&](std::size_t s, Compressed&& slab) {
    SlabInfo info = slab_at(s);
    if (s == 0) {
      // Size the container off the first slab (offset + length prefix +
      // payload per entry) so incremental packing does not pay repeated
      // reallocation-and-copy (retaining sinks) — streaming sinks ignore it.
      sink.reserve_hint(plan.count * (slab.bytes.size() + 16));
    }
    info.ratio = slab.stats.ratio;
    info.workflow = slab.stats.workflow_used;
    stats.slabs.push_back(info);
    std::array<std::uint8_t, 16> prefix{};
    const std::uint64_t off64 = info.offset;
    const std::uint64_t len64 = slab.bytes.size();
    std::memcpy(prefix.data(), &off64, 8);
    std::memcpy(prefix.data() + 8, &len64, 8);
    sim::Timer wt;
    sink.write(prefix);
    sink.write(slab.bytes);
    clock.add_write(wt.seconds());
    if (sink.retains_bytes()) meter.add(prefix.size() + slab.bytes.size());
    meter.sub(slab.bytes.size());
  };

  const PipelineSeconds t = run_ordered_pipeline<Compressed>(
      plan.count, run.workers, run.window, make_ctx, produce, consume);
  sink.finish();
  stats.compressed_bytes = sink.bytes_written();
  finish_stats(stats, t, clock, meter);
  return stats;
}

StreamingCompressed compress_impl(const StreamingConfig& cfg, const Compressor& compressor,
                                  FieldView data, const Extents& ext) {
  if (data.empty() || data.size() != ext.count()) {
    throw std::invalid_argument("StreamingCompressor::compress: data must match extents");
  }
  io::SpanFieldSource src(data.bytes());
  io::VectorSink sink;
  StreamingCompressed out;
  out.stats = compress_stream_impl(cfg, compressor, src, data.dtype(), ext, sink);
  out.bytes = sink.take();
  return out;
}

template <typename T>
std::vector<StreamingCompressed> compress_many_impl(const StreamingConfig& cfg,
                                                    const Compressor& compressor,
                                                    std::span<const std::span<const T>> fields,
                                                    std::span<const Extents> exts) {
  if (fields.size() != exts.size()) {
    throw std::invalid_argument(
        "StreamingCompressor::compress_many: one extents entry per field required");
  }
  // Fields fan out across workers; each nested compress_impl detects the
  // active outer region and runs single-worker (stats.workers_used == 1),
  // so the fan-out is explicitly one-level regardless of the OpenMP
  // runtime's nesting default.  Every result is kept, so the window spans
  // the whole batch and never throttles claiming.
  std::vector<StreamingCompressed> out(fields.size());
  run_ordered_pipeline<StreamingCompressed>(
      fields.size(), resolve_workers(cfg, fields.size()), fields.size(), [] { return WorkerCtx{}; },
      [&](WorkerCtx&, std::size_t f) { return compress_impl(cfg, compressor, fields[f], exts[f]); },
      [&](std::size_t f, StreamingCompressed&& c) { out[f] = std::move(c); });
  return out;
}

/// Positional reads over a FieldSource with ByteReader's verdicts
/// (require_fixed, require_length): one read_at per field, which is a
/// memcpy on a span or mmap source and a pread on a file.
class SourceReader {
 public:
  explicit SourceReader(const io::FieldSource& src) : src_(src), size_(src.size_bytes()) {}

  void set_segment(const char* segment) { segment_ = segment; }

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    require_fixed(sizeof(T), remaining(), segment_);
    T v;
    src_.read_at(pos_, std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(&v), sizeof(T)));
    pos_ += sizeof(T);
    return v;
  }

  /// Step over a u64-length-prefixed byte run without reading it (the
  /// positional ByteReader::get_bytes); returns the run's byte length.
  std::size_t skip_bytes() {
    const auto n = get<std::uint64_t>();
    require_length(n, 1, remaining(), segment_);
    pos_ += static_cast<std::size_t>(n);
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  const io::FieldSource& src_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* segment_ = "header";
};

/// One slab-directory entry: where the slab sits in the field and where its
/// archive sits in the container.
struct SlabEntry {
  std::size_t offset = 0;  ///< element offset the directory declares
  std::size_t pos = 0;     ///< byte position of the slab archive
  std::size_t len = 0;     ///< byte length of the slab archive
};

/// What read_directory() returns: the container's shape and its entries.
struct ContainerDirectory {
  Extents extents;
  DType dtype = DType::kFloat32;
  std::vector<SlabEntry> slabs;
};

/// The one container reader: the header, then every directory entry, by
/// positional reads that step over the slab archives themselves.  The
/// header passes archive::check_shape, and its slab count must fit the
/// bytes left at 16 per entry (a u64 offset and a u64 length).  Every
/// route — index(), slab_count(), in-memory, mmap and viewless decode —
/// parses a container here, so the same bytes get the same verdict on each.
ContainerDirectory read_directory(const io::FieldSource& src) {
  SourceReader r(src);
  if (r.get<std::uint32_t>() != kContainerMagic) {
    throw DecodeError(DecodeErrorKind::kBadMagic, "header", "not an SZPC container");
  }
  const auto version = r.get<std::uint16_t>();
  if (version != kContainerVersion) {
    throw DecodeError(DecodeErrorKind::kBadVersion, "header",
                      "container version " + std::to_string(version) + ", expected " +
                          std::to_string(kContainerVersion));
  }
  ContainerDirectory dir;
  dir.extents.rank = r.get<std::uint8_t>();
  const auto dtype_tag = r.get<std::uint8_t>();
  dir.extents.nx = r.get<std::uint64_t>();
  dir.extents.ny = r.get<std::uint64_t>();
  dir.extents.nz = r.get<std::uint64_t>();
  const auto slabs = r.get<std::uint64_t>();
  dir.dtype = archive::check_shape(dir.extents, dtype_tag);
  require_length(slabs, 16, r.remaining(), "header");

  r.set_segment("slab directory");
  dir.slabs.reserve(static_cast<std::size_t>(slabs));
  for (std::size_t s = 0; s < slabs; ++s) {
    SlabEntry e;
    e.offset = static_cast<std::size_t>(r.get<std::uint64_t>());
    e.len = r.skip_bytes();
    e.pos = r.position() - e.len;
    dir.slabs.push_back(e);
  }
  return dir;
}

/// Slab s's archive must hold the container's element type.
void check_slab_dtype(std::size_t s, DType slab, DType container) {
  if (slab != container) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "slab directory",
                      "slab " + std::to_string(s) + " element type disagrees with the container");
  }
}

/// The in-order tiling check: slab s must start where slab s-1 ended and
/// stay inside the field, and the slabs together must cover all of it.
struct TilingCursor {
  std::size_t total;
  std::size_t covered = 0;

  void advance(std::size_t s, std::size_t offset, std::size_t count) {
    if (offset != covered || count > total - covered) {
      throw DecodeError(DecodeErrorKind::kCorruptStream, "slab directory",
                        "slab " + std::to_string(s) + " at offset " + std::to_string(offset) +
                            " does not tile the field");
    }
    covered += count;
  }
  void finish() const {
    if (covered != total) {
      throw DecodeError(DecodeErrorKind::kCorruptStream, "slab directory",
                        "slabs cover " + std::to_string(covered) + " of " +
                            std::to_string(total) + " elements");
    }
  }
};

/// Validate every slab of a container that has a view, without decoding
/// payloads: inspect each slab archive, then check its dtype against the
/// container's and its tiling, then the total coverage.  Runs *before* the
/// output field is allocated, so spliced extents cannot drive a huge
/// resize.
ContainerIndex validate_slabs(const ContainerDirectory& dir,
                              std::span<const std::uint8_t> container) {
  ContainerIndex idx{dir.extents, dir.dtype, {}};
  idx.slabs.reserve(dir.slabs.size());
  TilingCursor tiling{dir.extents.count()};
  for (std::size_t s = 0; s < dir.slabs.size(); ++s) {
    const SlabEntry& e = dir.slabs[s];
    const std::span<const std::uint8_t> bytes = container.subspan(e.pos, e.len);
    const auto info = Compressor::inspect(bytes);
    check_slab_dtype(s, info.dtype, dir.dtype);
    tiling.advance(s, e.offset, info.extents.count());
    idx.slabs.push_back(ContainerSlab{e.offset, info.extents.count(), bytes});
  }
  tiling.finish();
  return idx;
}

/// One decoded slab flowing through the decode pipeline.
struct DecodedSlab {
  Decompressed d;
  std::size_t declared_offset = 0;  ///< element offset from the directory
};

/// Decoded-slab buffers recycled within one decode run: the packer hands
/// back each buffer it has emitted, and produce draws from here before
/// allocating.  Claims stay inside frontier + window, so a run creates at
/// most `window` buffers; it parks no more than the slabs still unclaimed
/// need, so the tail of a run frees its buffers instead of holding them.
class SlabBufferList {
 public:
  explicit SlabBufferList(std::size_t slabs) : unclaimed_(slabs) {}

  /// A buffer for one newly claimed slab (recycled when one is idle).
  Decompressed take() {
    const std::lock_guard<std::mutex> lk(m_);
    --unclaimed_;
    if (idle_.empty()) return {};
    Decompressed d = std::move(idle_.back());
    idle_.pop_back();
    return d;
  }
  /// Park an emitted buffer; false when no unclaimed slab needs it, and
  /// then it is freed on return.
  bool give(Decompressed d) {
    const std::lock_guard<std::mutex> lk(m_);
    if (idle_.size() >= unclaimed_) return false;
    idle_.push_back(std::move(d));
    return true;
  }

 private:
  std::mutex m_;
  std::size_t unclaimed_;
  std::vector<Decompressed> idle_;
};

/// The one decode path: in memory (span source, FieldSink) and out of core
/// (file source, FileSink) alike.  `out` is filled as the run goes — dtype
/// and extents as soon as the directory is read, before the sink sees any
/// byte — so a sink may consult it.
void decompress_stream_impl(io::FieldSource& src, io::ContainerSink& sink,
                            const StreamingConfig& cfg, StreamingFileInfo& out) {
  const std::span<const std::uint8_t> view = src.view();
  ResidencyMeter meter;
  PhaseClock clock;
  out.stats.compressed_bytes = src.size_bytes();

  const ContainerDirectory dir = read_directory(src);
  out.dtype = dir.dtype;
  out.extents = dir.extents;
  const std::size_t slab_count = dir.slabs.size();
  const std::size_t esize = dtype_size(out.dtype);
  const std::size_t total = out.extents.count();

  // A source with a view validates every slab up front, so the budget model
  // knows the largest slab.  A viewless one checks slabs as they arrive;
  // uniform tiling (constant thickness, short last slab) makes the mean a
  // tight estimate of the largest, and each worker stages one payload.
  std::size_t max_slab_elems = 0;
  std::size_t staging_cost = 0;
  if (!view.empty()) {
    for (const ContainerSlab& ref : validate_slabs(dir, view).slabs) {
      max_slab_elems = std::max(max_slab_elems, ref.count);
    }
  } else {
    max_slab_elems = slab_count == 0 ? 0 : (total + slab_count - 1) / slab_count;
    for (const SlabEntry& e : dir.slabs) staging_cost = std::max(staging_cost, e.len);
  }

  // produce = payload staging + its decoded slab; park = the decoded slab
  // (the staging buffer is reused).
  const std::size_t park_cost = max_slab_elems * esize;
  const RunWidth run =
      fit_run(cfg, slab_count, staging_cost + park_cost, park_cost, "to decode this container");
  out.stats.workers_used = run.workers;
  out.stats.eb_abs = 0.0;  // per-slab bounds live in the slab archives
  // Validated slabs bound the field, so a retaining sink may size for it up
  // front; a viewless source's slabs are validated only as they arrive.
  if (!view.empty()) sink.reserve_hint(total * esize);

  // Decode buffers live for this call only (DESIGN.md §2.3): each worker
  // leases one workspace for its codes, outliers, reconstruct scratch and
  // payload staging, and decoded slabs recycle through `buffers`.
  WorkspacePool pool;
  SlabBufferList buffers(slab_count);
  const auto make_ctx = [&] { return WorkerCtx{pool.acquire(), 0}; };

  const auto produce = [&](WorkerCtx& ctx, std::size_t s) -> DecodedSlab {
    const SlabEntry& e = dir.slabs[s];
    DecodedSlab item;
    item.d = buffers.take();
    item.declared_offset = e.offset;
    const std::size_t held = item.d.held_bytes();
    if (!view.empty()) {
      // validate_slabs() has checked this slab's CRC-32.
      detail::decompress_verified(view.subspan(e.pos, e.len), item.d, *ctx.lease);
    } else {
      Compressor::decompress(stage_read(ctx, src, e.pos, e.len, meter, clock), item.d,
                             *ctx.lease);
    }
    check_slab_dtype(s, item.d.dtype, out.dtype);
    // A buffer is charged when it is created or grows, and stays charged
    // while parked and while idle in `buffers` — until `buffers` frees it.
    meter.add(item.d.held_bytes() - held);
    return item;
  };

  TilingCursor tiling{total};  // touched only by the in-order packer role
  const auto consume = [&](std::size_t s, DecodedSlab&& item) {
    const std::span<const std::uint8_t> bytes = item.d.bytes();
    tiling.advance(s, item.declared_offset, bytes.size() / esize);
    SlabInfo info;
    info.extents = item.d.extents;
    info.offset = item.declared_offset;
    out.stats.slabs.push_back(info);
    sim::Timer wt;
    sink.write(bytes);
    clock.add_write(wt.seconds());
    if (sink.retains_bytes()) meter.add(bytes.size());
    const std::size_t held = item.d.held_bytes();
    if (!buffers.give(std::move(item.d))) meter.sub(held);
  };

  const PipelineSeconds t =
      run_ordered_pipeline<DecodedSlab>(slab_count, run.workers, run.window, make_ctx, produce,
                                        consume);
  tiling.finish();
  sink.finish();
  out.stats.original_bytes = sink.bytes_written();
  finish_stats(out.stats, t, clock, meter);
}

/// Sink of the in-memory decompress(): decoded slabs append straight into
/// the result's field, of the dtype the directory pass recorded in `info`,
/// reserved once from the decode's size hint (sim::reserve_dense: the slabs
/// fill all of it).
class FieldSink final : public io::ContainerSink {
 public:
  explicit FieldSink(const StreamingFileInfo& info) : info_(info) {}

  void write(std::span<const std::uint8_t> bytes) override {
    field().write_field([&]<typename T>(std::vector<T>& v) {
      const T* p = reinterpret_cast<const T*>(bytes.data());
      v.insert(v.end(), p, p + bytes.size() / sizeof(T));
    });
  }
  void reserve_hint(std::size_t more) override {
    field().write_field([&]<typename T>(std::vector<T>& v) {
      sim::reserve_dense(v, v.size() + more / sizeof(T));
    });
  }
  [[nodiscard]] std::size_t bytes_written() const override { return field_.bytes().size(); }
  [[nodiscard]] bool retains_bytes() const override { return true; }
  [[nodiscard]] std::string name() const override { return "<memory>"; }

  [[nodiscard]] Decompressed take() {
    field_.extents = info_.extents;
    return std::move(field());
  }

 private:
  /// The result, tagged with the dtype the directory pass has recorded by
  /// the time the sink sees its first call.
  Decompressed& field() {
    field_.dtype = info_.dtype;
    return field_;
  }

  const StreamingFileInfo& info_;
  Decompressed field_;
};

io::SourceMode source_mode(const StreamingConfig& cfg) {
  return cfg.use_mmap ? io::SourceMode::kAuto : io::SourceMode::kRead;
}

}  // namespace

StreamingCompressed StreamingCompressor::compress(FieldView data, const Extents& ext) const {
  return compress(data, ext, cfg_);
}

StreamingCompressed StreamingCompressor::compress(FieldView data, const Extents& ext,
                                                  const StreamingConfig& cfg) const {
  return compress_impl(cfg, slab_compressor_, data, ext);
}

StreamingStats StreamingCompressor::compress_stream(io::FieldSource& src, DType dtype,
                                                    const Extents& ext,
                                                    io::ContainerSink& sink) const {
  return compress_stream(src, dtype, ext, sink, cfg_);
}

StreamingStats StreamingCompressor::compress_stream(io::FieldSource& src, DType dtype,
                                                    const Extents& ext, io::ContainerSink& sink,
                                                    const StreamingConfig& cfg) const {
  return compress_stream_impl(cfg, slab_compressor_, src, dtype, ext, sink);
}

StreamingStats StreamingCompressor::compress_file(const std::filesystem::path& input,
                                                  const std::filesystem::path& output,
                                                  const Extents& ext, DType dtype) const {
  return compress_file(input, output, ext, dtype, cfg_);
}

StreamingStats StreamingCompressor::compress_file(const std::filesystem::path& input,
                                                  const std::filesystem::path& output,
                                                  const Extents& ext, DType dtype,
                                                  const StreamingConfig& cfg) const {
  const auto src = io::open_field_source(input, source_mode(cfg));
  io::FileSink sink(output);
  return compress_stream(*src, dtype, ext, sink, cfg);
}

StreamingFileInfo StreamingCompressor::decompress_stream(io::FieldSource& container,
                                                         io::ContainerSink& raw) {
  return decompress_stream(container, raw, StreamingConfig{});
}

StreamingFileInfo StreamingCompressor::decompress_stream(io::FieldSource& container,
                                                         io::ContainerSink& raw,
                                                         const StreamingConfig& cfg) {
  return decode_guard("streaming container", [&] {
    StreamingFileInfo info;
    decompress_stream_impl(container, raw, cfg, info);
    return info;
  });
}

StreamingFileInfo StreamingCompressor::decompress_file(const std::filesystem::path& input,
                                                       const std::filesystem::path& output) {
  return decompress_file(input, output, StreamingConfig{});
}

StreamingFileInfo StreamingCompressor::decompress_file(const std::filesystem::path& input,
                                                       const std::filesystem::path& output,
                                                       const StreamingConfig& cfg) {
  const auto src = io::open_field_source(input, source_mode(cfg));
  io::FileSink sink(output);
  return decompress_stream(*src, sink, cfg);
}

std::vector<StreamingCompressed> StreamingCompressor::compress_many(
    std::span<const std::span<const float>> fields, std::span<const Extents> exts) const {
  return compress_many_impl(cfg_, slab_compressor_, fields, exts);
}

std::vector<StreamingCompressed> StreamingCompressor::compress_many(
    std::span<const std::span<const double>> fields, std::span<const Extents> exts) const {
  return compress_many_impl(cfg_, slab_compressor_, fields, exts);
}

std::size_t StreamingCompressor::slab_count(std::span<const std::uint8_t> container) {
  return decode_guard("streaming container", [&] {
    return read_directory(io::SpanFieldSource(container)).slabs.size();
  });
}

ContainerIndex StreamingCompressor::index(std::span<const std::uint8_t> container) {
  return decode_guard("streaming container", [&] {
    return validate_slabs(read_directory(io::SpanFieldSource(container)), container);
  });
}

Decompressed StreamingCompressor::decompress(std::span<const std::uint8_t> container) {
  return decompress(container, StreamingConfig{});
}

Decompressed StreamingCompressor::decompress(std::span<const std::uint8_t> container,
                                             const StreamingConfig& cfg) {
  return decode_guard("streaming container", [&] {
    io::SpanFieldSource src(container);
    StreamingFileInfo info;
    FieldSink sink(info);
    decompress_stream_impl(src, sink, cfg, info);
    return sink.take();
  });
}

Decompressed StreamingCompressor::decompress_slab(const ContainerIndex& index,
                                                  std::size_t slab_index, SlabInfo* info_out) {
  // A bad index with a well-formed container is a caller error, not archive
  // corruption; keep its own exception type.
  if (slab_index >= index.slabs.size()) {
    throw std::out_of_range("StreamingCompressor::decompress_slab: slab index out of range");
  }
  return decode_guard("streaming container", [&] {
    const ContainerSlab& ref = index.slabs[slab_index];
    Decompressed slab = Compressor::decompress(ref.bytes);
    if (info_out != nullptr) {
      info_out->extents = slab.extents;
      info_out->offset = ref.offset;
    }
    return slab;
  });
}

Decompressed StreamingCompressor::decompress_slab(std::span<const std::uint8_t> container,
                                                  std::size_t slab_index, SlabInfo* info_out) {
  return decompress_slab(index(container), slab_index, info_out);
}

}  // namespace szp
