// perf_harness — the end-to-end and per-layer performance benchmark.
//
// Four fixed workloads (see kWorkloads and bench/perf/PERF.md) drive the
// public API only: Compressor, StreamingCompressor (in memory,
// compress_many, and compress_file/decompress_file), data::generate_field
// and compare_fields.  The loop is closed: one client thread issues
// compress op i, then decompress op i, back to back.  Every op is verified
// against the cold round trip made during set-up — identical output bytes,
// identical decoded values (whose error against the input is checked once,
// so an identical decode honors the bound too), and the memory budget on
// the file workload.
//
// End-to-end metrics come from an untraced run.  --trace FILE runs the same
// loop untraced for the first half and traced for the second; in the traced
// half each op's fields or slabs are replayed through Compressor, whose
// PipelineReport stages become synthetic stage spans, and the per-layer
// metrics are medians over the traced ops of the spans' self times and of
// the counters recorded beside them.  The spans are written at exit as
// Chrome trace-event JSON.
//
//   perf_harness --workload <name>|all [--seed N] [--seconds S] [--json FILE]
//                [--trace FILE] [--workdir DIR] [--smoke]
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics (the end-to-end set, or with --trace the
// per-layer set).  Exit status 0 means every op was verified.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <malloc.h>
#include <sys/mman.h>
#include <unistd.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/metrics.hh"
#include "core/streaming.hh"
#include "data/catalog.hh"
#include "data/synthetic.hh"
#include "sim/device.hh"
#include "sim/perf_model.hh"
#include "trace.hh"

namespace {

using namespace szp;
namespace fs = std::filesystem;
using perf::Clock;
using perf::ScopedSpan;
using perf::Span;
using perf::Tracer;
using Bytes = std::span<const std::uint8_t>;
using Samples = std::map<std::string, std::vector<double>>;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

template <typename T>
Bytes as_bytes(const std::vector<T>& v) {
  return {reinterpret_cast<const std::uint8_t*>(v.data()), v.size() * sizeof(T)};
}

template <typename T>
std::span<const T> as_values(Bytes b) {
  return {reinterpret_cast<const T*>(b.data()), b.size() / sizeof(T)};
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Generator seed of field `index`: only the harness sees --seed, the
/// library receives only the generated arrays.  Never 0, which would make
/// generate_field derive the seed from the field's name instead.
std::uint64_t field_seed(std::uint64_t seed, std::size_t index) {
  const std::uint64_t h = splitmix64(seed ^ splitmix64(index + 1));
  return h != 0 ? h : 1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct Interval {
  Clock::time_point start;
  Clock::time_point end;
  [[nodiscard]] double seconds() const { return seconds_between(start, end); }
};

template <typename Fn>
Interval timed(Fn&& fn) {
  Interval iv;
  iv.start = Clock::now();
  fn();
  iv.end = Clock::now();
  return iv;
}

// --- Host-speed reference -------------------------------------------------------
//
// On a shared host the whole machine slows by 15-20% for tens of seconds at
// a time as neighbours come and go, longer than one run, so no statistic
// over a run's ops removes it.  The time to first-touch 16 MiB of fresh
// pages (page faults plus zeroing) tracked the library's op times with
// r = 0.97 over 20-s windows; dividing by it cut their window-to-window
// spread from 14-21% to 3-4%.  The gated timings are therefore scaled by
// kReferenceNominalSeconds / (reference time measured just before them):
// seconds at this reference host state, where the reference kernel takes
// its quiet-host time on the 4-vCPU Xeon the workloads were sized on.  Raw
// timings print beside them, ungated.

constexpr double kReferenceNominalSeconds = 0.0075;

double reference_seconds() {
  constexpr std::size_t kBytes = std::size_t{16} << 20;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const auto t0 = Clock::now();
  void* p = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("reference kernel: mmap failed");
  auto* bytes = static_cast<volatile unsigned char*>(p);
  for (std::size_t i = 0; i < kBytes; i += page) bytes[i] = 1;
  ::munmap(p, kBytes);
  return seconds_between(t0, Clock::now());
}

/// A raw timing and the reference time measured just before it.
struct Timing {
  double seconds = 0.0;
  double reference = 0.0;
  [[nodiscard]] double scaled() const { return seconds * kReferenceNominalSeconds / reference; }
};

double median_scaled(const std::vector<Timing>& v) {
  std::vector<double> s;
  for (const Timing& t : v) s.push_back(t.scaled());
  return median(std::move(s));
}

/// One field or slab of an op, as replayed through Compressor: its input
/// elements, the archive the op produced for it, and the values the op
/// decoded for it.
struct Unit {
  Bytes input;
  Extents ext;
  double eb_abs = 0.0;
  Bytes archive;
  Bytes decoded;
};

/// Appends one unit per slab of a container.  Units view `container`,
/// `input` and `decoded`; they are valid while those are.  `decoded` may
/// be short (no successful decode yet), leaving the units' views empty.
void add_container_units(std::vector<Unit>& out, Bytes container, Bytes input, Bytes decoded,
                         std::size_t elem, double eb_abs) {
  const ContainerIndex index = StreamingCompressor::index(container);
  for (const ContainerSlab& s : index.slabs) {
    const std::size_t offset = s.offset * elem, bytes = s.count * elem;
    out.push_back({input.subspan(offset, bytes), Compressor::inspect(s.bytes).extents, eb_abs,
                   s.bytes,
                   offset + bytes <= decoded.size() ? decoded.subspan(offset, bytes) : Bytes{}});
  }
}

CompressConfig auto_config(double rel_eb) {
  CompressConfig cfg;
  cfg.eb = ErrorBound::relative(rel_eb);
  cfg.workflow = Workflow::kAuto;
  return cfg;
}

StreamingConfig streaming_config(double rel_eb, std::size_t workers) {
  StreamingConfig cfg;
  cfg.base = auto_config(rel_eb);
  cfg.workers = workers;  // explicit, so SZP_WORKERS is never consulted
  return cfg;
}

void add_streaming_samples(Samples& s, const StreamingStats& st, double wall) {
  s["streaming.slabs_per_op"].push_back(static_cast<double>(st.slabs.size()));
  s["streaming.workers_used"].push_back(static_cast<double>(st.workers_used));
  s["streaming.compress_busy_s"].push_back(st.phases.compress_seconds);
  s["streaming.pack_s"].push_back(st.phases.pack_seconds);
  s["streaming.range_s"].push_back(st.phases.range_seconds);
  s["streaming.parallel_efficiency"].push_back(
      st.phases.compress_seconds / (wall * static_cast<double>(st.workers_used)));
}

// --- Workloads ---------------------------------------------------------------

/// One benchmark workload: inputs made from the seed, one timed library
/// call per direction, and views of what the last op produced.
class Workload {
 public:
  Workload(const char* name, DType dtype, std::size_t threads)
      : name_(name), dtype_(dtype), threads_(threads) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  [[nodiscard]] const char* name() const { return name_; }
  [[nodiscard]] DType dtype() const { return dtype_; }
  /// Library threads: the OpenMP budget and StreamingConfig::workers.
  [[nodiscard]] std::size_t threads() const { return threads_; }

  [[nodiscard]] virtual std::string describe() const = 0;
  /// The data layer: generate every input field from the seed.
  virtual void generate(std::uint64_t seed, bool smoke) = 0;
  /// Set-up after generation (input files); `dir` is private to the workload.
  virtual void prepare(const fs::path& /*dir*/) {}
  /// Frees the previous op pair's outputs, so that the next op's resident
  /// memory is measured from a baseline without them.
  virtual void release() = 0;
  /// Timed library calls: compress fills the outputs release() freed, and
  /// decompress decodes what compress produced.
  virtual Interval compress() = 0;
  virtual Interval decompress() = 0;
  /// Makes the op's outputs visible to encoded()/decoded(), after its memory
  /// peak is read (file-3d reads its output files back here).
  virtual void collect(bool /*compress*/) {}

  [[nodiscard]] virtual std::vector<Bytes> inputs() const = 0;
  [[nodiscard]] virtual std::vector<Bytes> encoded() const = 0;
  [[nodiscard]] virtual std::vector<Bytes> decoded() const = 0;  ///< one per input
  [[nodiscard]] virtual std::vector<double> bounds() const = 0;  ///< eb_abs per input
  [[nodiscard]] virtual std::vector<Unit> units() const = 0;
  [[nodiscard]] virtual CompressConfig base_config() const = 0;
  [[nodiscard]] virtual bool within_budget() const { return true; }
  /// Per-layer counters of the last op that only the workload can see.
  virtual void layer_samples(Samples& /*s*/, double /*compress_wall*/) const {}

 private:
  const char* name_;
  DType dtype_;
  std::size_t threads_;
};

/// rough-1d: HACC vx through Compressor, single-threaded.  Huffman decode
/// and outlier gather/scatter dominate; streaming and io stay idle.
class Rough1d final : public Workload {
 public:
  Rough1d() : Workload("rough-1d", DType::kFloat32, 1) {}

  [[nodiscard]] std::string describe() const override {
    return "HACC vx, " + std::to_string(field_.size()) +
           " f32, rel eb 3e-5, Compressor::compress/decompress";
  }
  void generate(std::uint64_t seed, bool smoke) override {
    auto spec = data::find_field(data::make_dataset("HACC", smoke ? 1.0 / 512 : 0.5), "vx").spec;
    spec.seed = field_seed(seed, 0);
    ext_ = spec.extents;
    field_ = data::generate_field(spec);
  }
  void release() override {
    out_ = {};
    dec_ = {};
  }
  Interval compress() override {
    return timed([&] { out_ = compressor_.compress(field_, ext_); });
  }
  Interval decompress() override {
    return timed([&] { dec_ = Compressor::decompress(out_.bytes); });
  }
  [[nodiscard]] std::vector<Bytes> inputs() const override { return {as_bytes(field_)}; }
  [[nodiscard]] std::vector<Bytes> encoded() const override { return {as_bytes(out_.bytes)}; }
  [[nodiscard]] std::vector<Bytes> decoded() const override { return {as_bytes(dec_.data)}; }
  [[nodiscard]] std::vector<double> bounds() const override { return {out_.stats.eb_abs}; }
  [[nodiscard]] std::vector<Unit> units() const override {
    return {{as_bytes(field_), ext_, out_.stats.eb_abs, as_bytes(out_.bytes), as_bytes(dec_.data)}};
  }
  [[nodiscard]] CompressConfig base_config() const override { return compressor_.config(); }

 private:
  Compressor compressor_{auto_config(3e-5)};
  Extents ext_;
  std::vector<float> field_;
  Compressed out_;
  Decompressed dec_;
};

/// batch-2d-f64: 32 CESM-ATM fields as float64 through compress_many, then
/// one StreamingCompressor::decompress per field.  Per-call fixed costs
/// dominate; the only float64 path.
class Batch2dF64 final : public Workload {
 public:
  Batch2dF64() : Workload("batch-2d-f64", DType::kFloat64, 1) {}

  [[nodiscard]] std::string describe() const override {
    return std::to_string(fields_.size()) + " CESM-ATM fields, " + std::to_string(exts_.at(0).ny) +
           "x" + std::to_string(exts_.at(0).nx) +
           " f64, rel eb 1e-3, compress_many + StreamingCompressor::decompress per field";
  }
  void generate(std::uint64_t seed, bool smoke) override {
    const data::Dataset ds = data::make_dataset("CESM-ATM", smoke ? 0.02 : 0.125);
    const std::size_t n = std::min<std::size_t>(smoke ? 4 : 32, ds.fields.size());
    for (std::size_t i = 0; i < n; ++i) {
      auto spec = ds.fields[i].spec;
      spec.seed = field_seed(seed, i);
      const std::vector<float> f = data::generate_field(spec);
      fields_.emplace_back(f.begin(), f.end());
      exts_.push_back(spec.extents);
    }
    for (const auto& f : fields_) spans_.emplace_back(f);
  }
  void release() override {
    out_.clear();
    dec_.clear();
  }
  Interval compress() override {
    return timed([&] { out_ = streamer_.compress_many(spans_, exts_); });
  }
  Interval decompress() override {
    dec_.resize(out_.size());
    return timed([&] {
      for (std::size_t i = 0; i < out_.size(); ++i) {
        dec_[i] = StreamingCompressor::decompress(out_[i].bytes, streamer_.config());
      }
    });
  }
  [[nodiscard]] std::vector<Bytes> inputs() const override {
    std::vector<Bytes> v;
    for (const auto& f : fields_) v.push_back(as_bytes(f));
    return v;
  }
  [[nodiscard]] std::vector<Bytes> encoded() const override {
    std::vector<Bytes> v;
    for (const auto& c : out_) v.push_back(as_bytes(c.bytes));
    return v;
  }
  [[nodiscard]] std::vector<Bytes> decoded() const override {
    std::vector<Bytes> v;
    for (const auto& d : dec_) v.push_back(as_bytes(d.data_f64));
    return v;
  }
  [[nodiscard]] std::vector<double> bounds() const override {
    std::vector<double> v;
    for (const auto& c : out_) v.push_back(c.stats.eb_abs);
    return v;
  }
  [[nodiscard]] std::vector<Unit> units() const override {
    std::vector<Unit> v;
    for (std::size_t i = 0; i < out_.size(); ++i) {
      add_container_units(v, as_bytes(out_[i].bytes), as_bytes(fields_[i]),
                          i < dec_.size() ? as_bytes(dec_[i].data_f64) : Bytes{}, sizeof(double),
                          out_[i].stats.eb_abs);
    }
    return v;
  }
  [[nodiscard]] CompressConfig base_config() const override { return streamer_.config().base; }
  void layer_samples(Samples& s, double compress_wall) const override {
    StreamingStats sum;
    sum.workers_used = 0;
    for (const auto& c : out_) {
      sum.slabs.insert(sum.slabs.end(), c.stats.slabs.begin(), c.stats.slabs.end());
      sum.workers_used = std::max(sum.workers_used, c.stats.workers_used);
      sum.phases.compress_seconds += c.stats.phases.compress_seconds;
      sum.phases.pack_seconds += c.stats.phases.pack_seconds;
      sum.phases.range_seconds += c.stats.phases.range_seconds;
    }
    add_streaming_samples(s, sum, compress_wall);
  }

 private:
  StreamingCompressor streamer_{streaming_config(1e-3, threads())};
  std::vector<std::vector<double>> fields_;
  std::vector<std::span<const double>> spans_;
  std::vector<Extents> exts_;
  std::vector<StreamingCompressed> out_;
  std::vector<StreamingDecompressed> dec_;
};

/// slabs-3d: Miranda density through the in-memory slab engine with 2
/// workers; 64 slabs, working set beyond the last-level cache.
class Slabs3d final : public Workload {
 public:
  Slabs3d() : Workload("slabs-3d", DType::kFloat32, 2) {}

  [[nodiscard]] std::string describe() const override {
    return "Miranda density, " + std::to_string(ext_.nz) + "x" + std::to_string(ext_.ny) + "x" +
           std::to_string(ext_.nx) + " f32, rel eb 1e-3, " +
           std::to_string(streamer_.config().max_slab_elems) +
           "-element slabs, StreamingCompressor::compress/decompress";
  }
  void generate(std::uint64_t seed, bool smoke) override {
    auto spec =
        data::find_field(data::make_dataset("Miranda", smoke ? 0.1 : 0.75), "density").spec;
    spec.seed = field_seed(seed, 0);
    ext_ = spec.extents;
    field_ = data::generate_field(spec);
    if (smoke) {
      StreamingConfig cfg = streamer_.config();
      cfg.max_slab_elems = std::size_t{1} << 12;
      streamer_ = StreamingCompressor(cfg);
    }
  }
  void release() override {
    out_ = {};
    dec_ = {};
  }
  Interval compress() override {
    return timed([&] { out_ = streamer_.compress(field_, ext_); });
  }
  Interval decompress() override {
    return timed([&] { dec_ = StreamingCompressor::decompress(out_.bytes, streamer_.config()); });
  }
  [[nodiscard]] std::vector<Bytes> inputs() const override { return {as_bytes(field_)}; }
  [[nodiscard]] std::vector<Bytes> encoded() const override { return {as_bytes(out_.bytes)}; }
  [[nodiscard]] std::vector<Bytes> decoded() const override { return {as_bytes(dec_.data)}; }
  [[nodiscard]] std::vector<double> bounds() const override { return {out_.stats.eb_abs}; }
  [[nodiscard]] std::vector<Unit> units() const override {
    std::vector<Unit> v;
    add_container_units(v, as_bytes(out_.bytes), as_bytes(field_), as_bytes(dec_.data),
                        sizeof(float), out_.stats.eb_abs);
    return v;
  }
  [[nodiscard]] CompressConfig base_config() const override { return streamer_.config().base; }
  void layer_samples(Samples& s, double compress_wall) const override {
    add_streaming_samples(s, out_.stats, compress_wall);
  }

 private:
  static StreamingConfig config(std::size_t workers) {
    StreamingConfig cfg = streaming_config(1e-3, workers);
    cfg.max_slab_elems = std::size_t{1} << 18;
    return cfg;
  }

  StreamingCompressor streamer_{config(threads())};
  Extents ext_;
  std::vector<float> field_;
  StreamingCompressed out_;
  StreamingDecompressed dec_;
};

/// file-3d: Nyx velocity_x file to file under a 16 MiB budget with
/// positional reads.  The same slab engine as slabs-3d, fed by pread and
/// drained by writes.  A plateau-free field: the catalog's plateau fields
/// (RTM) swing the ratio by 6-10% from seed to seed.  One thread: with two,
/// decode spread 12% from run to run, with one 2-3%.
class File3d final : public Workload {
 public:
  File3d() : Workload("file-3d", DType::kFloat32, 1) {}

  [[nodiscard]] std::string describe() const override {
    return "Nyx velocity_x, " + std::to_string(ext_.nz) + "x" + std::to_string(ext_.ny) + "x" +
           std::to_string(ext_.nx) +
           " f32, rel eb 1e-3, 16 MiB budget, no mmap, compress_file/decompress_file";
  }
  void generate(std::uint64_t seed, bool smoke) override {
    auto spec =
        data::find_field(data::make_dataset("Nyx", smoke ? 0.05 : 0.43), "velocity_x").spec;
    spec.seed = field_seed(seed, 0);
    ext_ = spec.extents;
    field_ = data::generate_field(spec);
  }
  void prepare(const fs::path& dir) override {
    fs::create_directories(dir);
    input_ = dir / "input.f32";
    container_path_ = dir / "field.szpc";
    output_ = dir / "restored.f32";
    std::ofstream f(input_, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(field_.data()),
            static_cast<std::streamsize>(field_.size() * sizeof(float)));
    if (!f) throw std::runtime_error("file-3d: cannot write " + input_.string());
  }
  // Each op pair writes new files, as a user's would.  Truncating the previous
  // op's file instead makes ext4 (auto_da_alloc) start writeback at close,
  // and the next op's truncate then waits on the disk.
  void release() override {
    stats_ = {};
    info_ = {};
    container_ = {};
    restored_ = {};
    fs::remove(container_path_);
    fs::remove(output_);
  }
  Interval compress() override {
    return timed(
        [&] { stats_ = streamer_.compress_file(input_, container_path_, ext_, DType::kFloat32); });
  }
  Interval decompress() override {
    return timed([&] {
      info_ = StreamingCompressor::decompress_file(container_path_, output_, streamer_.config());
    });
  }
  void collect(bool compress) override {
    if (compress) {
      container_ = read_file(container_path_);
    } else {
      restored_ = read_file(output_);
    }
  }
  [[nodiscard]] std::vector<Bytes> inputs() const override { return {as_bytes(field_)}; }
  [[nodiscard]] std::vector<Bytes> encoded() const override { return {as_bytes(container_)}; }
  [[nodiscard]] std::vector<Bytes> decoded() const override { return {as_bytes(restored_)}; }
  [[nodiscard]] std::vector<double> bounds() const override { return {stats_.eb_abs}; }
  [[nodiscard]] std::vector<Unit> units() const override {
    std::vector<Unit> v;
    add_container_units(v, as_bytes(container_), as_bytes(field_), as_bytes(restored_),
                        sizeof(float), stats_.eb_abs);
    return v;
  }
  [[nodiscard]] CompressConfig base_config() const override { return streamer_.config().base; }
  [[nodiscard]] bool within_budget() const override {
    return stats_.peak_resident_bytes <= kBudget && info_.stats.peak_resident_bytes <= kBudget;
  }
  void layer_samples(Samples& s, double compress_wall) const override {
    add_streaming_samples(s, stats_, compress_wall);
    const double peak = static_cast<double>(
        std::max(stats_.peak_resident_bytes, info_.stats.peak_resident_bytes));
    s["io.read_s"].push_back(stats_.phases.read_seconds);
    s["io.write_s"].push_back(stats_.phases.write_seconds);
    s["io.decode_write_s"].push_back(info_.stats.phases.write_seconds);
    s["io.peak_resident_bytes"].push_back(peak);
    s["io.budget_frac"].push_back(peak / static_cast<double>(kBudget));
  }

 private:
  static constexpr std::size_t kBudget = std::size_t{16} << 20;

  static StreamingConfig config(std::size_t workers) {
    StreamingConfig cfg = streaming_config(1e-3, workers);
    cfg.memory_budget = kBudget;
    cfg.use_mmap = false;
    return cfg;
  }

  static std::vector<std::uint8_t> read_file(const fs::path& path) {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    if (!f) throw std::runtime_error("file-3d: cannot read " + path.string());
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(f.tellg()));
    f.seekg(0);
    f.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
    if (!f) throw std::runtime_error("file-3d: short read of " + path.string());
    return bytes;
  }

  StreamingCompressor streamer_{config(threads())};
  Extents ext_;
  std::vector<float> field_;
  fs::path input_, container_path_, output_;
  StreamingStats stats_;
  StreamingFileInfo info_;
  std::vector<std::uint8_t> container_;
  std::vector<std::uint8_t> restored_;
};

constexpr std::string_view kWorkloads[] = {"rough-1d", "batch-2d-f64", "slabs-3d", "file-3d"};

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "rough-1d") return std::make_unique<Rough1d>();
  if (name == "batch-2d-f64") return std::make_unique<Batch2dF64>();
  if (name == "slabs-3d") return std::make_unique<Slabs3d>();
  if (name == "file-3d") return std::make_unique<File3d>();
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

// --- Metrics -------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The per-layer metric names and units BENCHMARK.json declares (the smoke
/// test checks the two agree).  The selector's per-codec pick counts are
/// recorded as trace counters only: more picks of one codec is neither
/// better nor worse.
constexpr MetricDef kPerLayer[] = {
    {"data.generate_s", "s"},
    {"compressor.compress_self_s", "s"},
    {"compressor.decompress_self_s", "s"},
    {"predictor.construct_s", "s"},
    {"predictor.reconstruct_s", "s"},
    {"predictor.bytes_computed", "bytes"},
    {"outliers.gather_s", "s"},
    {"outliers.scatter_s", "s"},
    {"outliers.frac", "fraction"},
    {"histogram.s", "s"},
    {"histogram.bytes_computed", "bytes"},
    {"selector.ratio_regret", "x"},
    {"codec.encode_s", "s"},
    {"codec.decode_s", "s"},
    {"codec.bits_per_symbol", "bits"},
    {"codec.bytes_computed", "bytes"},
    {"codec.launches", "count"},
    {"workspace.grow_events_per_op", "count"},
    {"workspace.created", "count"},
    {"streaming.slabs_per_op", "count"},
    {"streaming.workers_used", "count"},
    {"streaming.compress_busy_s", "s"},
    {"streaming.pack_s", "s"},
    {"streaming.range_s", "s"},
    {"streaming.parallel_efficiency", "fraction"},
    {"io.read_s", "s"},
    {"io.write_s", "s"},
    {"io.decode_write_s", "s"},
    {"io.peak_resident_bytes", "bytes"},
    {"io.budget_frac", "fraction"},
    {"pipeline.modeled_v100_compress_s", "s"},
    {"pipeline.modeled_v100_decompress_s", "s"},
    {"trace.overhead_frac", "fraction"},
    {"trace.replay_identical_frac", "fraction"},
};

/// Fixed codecs, in Workflow order, with the metric suffix of their picks.
constexpr std::pair<Workflow, const char*> kCodecs[] = {
    {Workflow::kHuffman, "huffman"}, {Workflow::kRle, "rle"},   {Workflow::kRleVle, "rle_vle"},
    {Workflow::kRans, "rans"},       {Workflow::kLz77, "lz77"}, {Workflow::kLzh, "lzh"},
    {Workflow::kLzr, "lzr"},
};

/// Self-time span categories, and the per-layer metric each one feeds.
/// PipelineReport stages map to layers by name (stage_layer), so a new
/// codec's stages land in codec.* without a benchmark edit.
constexpr std::pair<const char*, const char*> kSelfTimeLayers[] = {
    {"compressor.compress", "compressor.compress_self_s"},
    {"compressor.decompress", "compressor.decompress_self_s"},
    {"predictor.construct", "predictor.construct_s"},
    {"predictor.reconstruct", "predictor.reconstruct_s"},
    {"outliers.gather", "outliers.gather_s"},
    {"outliers.scatter", "outliers.scatter_s"},
    {"histogram", "histogram.s"},
    {"codec.encode", "codec.encode_s"},
    {"codec.decode", "codec.decode_s"},
};

const char* stage_layer(std::string_view stage, bool compress) {
  if (stage.ends_with("_reconstruct")) return "predictor.reconstruct";
  if (stage.ends_with("_construct")) return "predictor.construct";
  if (stage == "gather_outlier") return "outliers.gather";
  if (stage == "scatter_outlier") return "outliers.scatter";
  if (stage == "histogram") return "histogram";
  return compress ? "codec.encode" : "codec.decode";
}

/// Layer whose bytes_computed counter a stage's contract-derived traffic
/// feeds (the predictor, histogram and codec layers).
const char* bytes_layer(std::string_view layer) {
  if (layer.starts_with("predictor")) return "predictor.bytes_computed";
  if (layer == "histogram") return "histogram.bytes_computed";
  if (layer.starts_with("codec")) return "codec.bytes_computed";
  return nullptr;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A number printed beside the gated metrics but not gated.
struct Ungated {
  Metric metric;
  std::string note;
};

/// Highest percentile of op seconds with at least ten samples beyond it.
Ungated tail(const char* name, std::vector<double> v) {
  const std::string n = "n=" + std::to_string(v.size());
  if (v.size() < 11) return {{name, 0.0, "s"}, n + " < 11, no percentile"};
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() - 11;
  return {{name, v[k], "s"}, "p" + std::to_string(100 * (k + 1) / v.size()) + ", " + n};
}

// An op's resident memory is how far VmHWM rises above the RSS at the op's
// start: the pages the library touches for the call, not the harness's
// inputs and reference copies.  Before each op the previous pair's outputs
// are freed and the heap is trimmed, so the library's allocations fault
// fresh pages rather than reuse ones the harness left resident.

/// Pins glibc's mmap threshold at its default, 128 KiB.  Left adaptive,
/// glibc raises it when a large buffer is freed, and later large buffers
/// then reuse resident heap pages.  Whether that happened differed from
/// process to process, and with it file-3d decode time (by 25%) and each
/// op's resident memory (by 24%).  Pinned, every large buffer is mapped
/// fresh and unmapped when freed, in every run.
void pin_mmap_threshold() {
#ifdef __GLIBC__
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

/// Returns free heap pages to the kernel, so RSS holds live data only.
void trim_heap() {
#ifdef __GLIBC__
  ::malloc_trim(0);
#endif
}

/// Resets VmHWM to the current RSS (Linux clear_refs); false when refused.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// The /proc/self/status line `key` ("VmRSS", "VmHWM") in MB (10^6
/// bytes); 0 when unavailable.
double status_mb(std::string_view key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.size() > key.size() && line.starts_with(key) && line[key.size()] == ':') {
      return std::stod(line.substr(key.size() + 1)) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

// --- The loop --------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string json_path;
  std::string trace_path;
  fs::path workdir;
  bool smoke = false;  ///< tiny fields and kSmokePairs op pairs per phase
};

/// Outputs of the cold round trip that every later op must reproduce.
struct Reference {
  std::vector<std::vector<std::uint8_t>> encoded;
  std::vector<std::vector<std::uint8_t>> decoded;
};

std::vector<std::vector<std::uint8_t>> copy_all(const std::vector<Bytes>& views) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const Bytes b : views) out.emplace_back(b.begin(), b.end());
  return out;
}

bool same(const std::vector<Bytes>& views, const std::vector<std::vector<std::uint8_t>>& ref) {
  if (views.size() != ref.size()) return false;
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (views[i].size() != ref[i].size() ||
        std::memcmp(views[i].data(), ref[i].data(), ref[i].size()) != 0) {
      return false;
    }
  }
  return true;
}

struct Phase {
  std::vector<Timing> compress;
  std::vector<Timing> decompress;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double op_peak_rss_mb = 0.0;  ///< largest rise of VmHWM over an op's starting RSS
};

/// Replays ops through a warm Compressor and records per-layer spans and
/// counters (the traced half of a --trace run).
class Replayer {
 public:
  Replayer(const Workload& w, Tracer& tracer) : w_(w), tracer_(tracer) {}

  /// One untraced replay, so pool growth lands before the traced ops.
  void warm() {
    for (const Unit& u : w_.units()) (void)compress_unit(u);
  }

  void compress(std::int64_t op, std::int64_t parent, Samples& s) {
    const ScopedSpan replay(&tracer_, "replay", "replay", parent, op);
    const auto grows_before = compressor_.workspace_stats().grow_events;
    std::map<std::string, double> counts;
    double elems = 0, outliers = 0, archive_bytes = 0, modeled = 0;
    for (const Unit& u : w_.units()) {
      Compressed c;
      const Interval iv = timed([&] { c = compress_unit(u); });
      lay_stages(c.stats.pipeline, iv, "Compressor::compress", "compressor.compress", true,
                 replay.index(), op, counts);
      count_identical(c.bytes.size() == u.archive.size() &&
                      std::memcmp(c.bytes.data(), u.archive.data(), u.archive.size()) == 0);
      for (const auto& [wf, suffix] : kCodecs) {
        if (c.stats.workflow_used == wf) counts[std::string("selector.picks.") + suffix] += 1;
      }
      elems += static_cast<double>(u.ext.count());
      outliers += static_cast<double>(c.stats.outlier_count);
      archive_bytes += static_cast<double>(c.bytes.size());
      modeled += sim::modeled_pipeline_seconds(sim::v100(), c.stats.pipeline);
    }
    counts["outliers.frac"] = outliers / elems;
    counts["codec.bits_per_symbol"] = 8.0 * archive_bytes / elems;
    counts["pipeline.modeled_v100_compress_s"] = modeled;
    counts["workspace.grow_events_per_op"] =
        static_cast<double>(compressor_.workspace_stats().grow_events - grows_before);
    record(counts, op, s);
  }

  void decompress(std::int64_t op, std::int64_t parent, Samples& s) {
    const ScopedSpan replay(&tracer_, "replay", "replay", parent, op);
    std::map<std::string, double> counts;
    double modeled = 0;
    for (const Unit& u : w_.units()) {
      Decompressed d;
      const Interval iv = timed([&] { d = Compressor::decompress(u.archive); });
      lay_stages(d.pipeline, iv, "Compressor::decompress", "compressor.decompress", false,
                 replay.index(), op, counts);
      const Bytes values =
          d.dtype == DType::kFloat32 ? as_bytes(d.data) : as_bytes(d.data_f64);
      count_identical(values.size() == u.decoded.size() &&
                      std::memcmp(values.data(), u.decoded.data(), values.size()) == 0);
      modeled += sim::modeled_pipeline_seconds(sim::v100(), d.pipeline);
    }
    counts["pipeline.modeled_v100_decompress_s"] = modeled;
    record(counts, op, s);
  }

  /// Best fixed-codec archive per unit vs the kAuto archive, over the last
  /// op's units: Σ auto bytes ÷ Σ best fixed bytes (>= 1).
  [[nodiscard]] double ratio_regret() const {
    double auto_bytes = 0, best_bytes = 0;
    for (const Unit& u : w_.units()) {
      double best = static_cast<double>(u.archive.size());
      for (const auto& [wf, suffix] : kCodecs) {
        CompressConfig cfg = config_for(u);
        cfg.workflow = wf;
        try {
          best = std::min(best, static_cast<double>(compress_with(u, cfg).bytes.size()));
        } catch (const std::invalid_argument&) {
          // A codec that refuses this input is simply not a candidate.
        }
      }
      auto_bytes += static_cast<double>(u.archive.size());
      best_bytes += best;
    }
    return auto_bytes / best_bytes;
  }

  [[nodiscard]] double identical_frac() const {
    return replayed_ > 0 ? static_cast<double>(identical_) / static_cast<double>(replayed_) : 0.0;
  }
  [[nodiscard]] std::size_t workspaces_created() const {
    return compressor_.workspace_stats().created;
  }

 private:
  [[nodiscard]] CompressConfig config_for(const Unit& u) const {
    CompressConfig cfg = w_.base_config();
    cfg.eb = ErrorBound::absolute(u.eb_abs);
    return cfg;
  }
  [[nodiscard]] Compressed compress_with(const Unit& u, const CompressConfig& cfg) const {
    if (w_.dtype() == DType::kFloat32) return compressor_.compress(as_values<float>(u.input), u.ext, cfg);
    return compressor_.compress(as_values<double>(u.input), u.ext, cfg);
  }
  [[nodiscard]] Compressed compress_unit(const Unit& u) const {
    return compress_with(u, config_for(u));
  }

  void count_identical(bool identical) {
    ++replayed_;
    if (identical) ++identical_;
  }

  /// The unit's call span, then its stages laid end to end inside it.
  void lay_stages(const sim::PipelineReport& report, const Interval& iv, const char* name,
                  const char* cat, bool compress, std::int64_t parent, std::int64_t op,
                  std::map<std::string, double>& counts) {
    const auto unit = static_cast<std::int64_t>(
        tracer_.add(Span{name, cat, iv.start, iv.end, parent, op, false, {}}));
    Clock::time_point t = iv.start;
    for (const sim::StageReport& st : report.stages) {
      const char* layer = stage_layer(st.name, compress);
      const auto end = std::min(
          iv.end, t + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(st.cpu_seconds)));
      tracer_.add(Span{st.name, layer, t, end, unit, op, true,
                       {{"bytes_computed", static_cast<double>(st.cost.bytes())}}});
      t = end;
      if (const char* bytes = bytes_layer(layer)) {
        counts[bytes] += static_cast<double>(st.cost.bytes());
      }
      if (std::string_view(layer).starts_with("codec")) {
        counts["codec.launches"] += st.cost.launches;
      }
    }
  }

  /// Adds the op's counters to the samples (summing with the other
  /// direction of the same op) and to the trace.
  void record(const std::map<std::string, double>& counts, std::int64_t op, Samples& s) {
    for (const auto& [name, value] : counts) {
      tracer_.counter(name, value, op);
      auto& v = s[name];
      if (static_cast<std::int64_t>(v.size()) == op + 1) {
        v.back() += value;
      } else {
        v.resize(static_cast<std::size_t>(op), 0.0);
        v.push_back(value);
      }
    }
  }

  const Workload& w_;
  Tracer& tracer_;
  Compressor compressor_;
  std::size_t replayed_ = 0;
  std::size_t identical_ = 0;
};

/// Runs op pairs until the phase's length is reached.  With a replayer,
/// each op is traced and replayed (outside its own timing).
Phase run_phase(Workload& w, const Reference& ref, const Options& opt, double seconds,
                Tracer* tracer, std::int64_t parent, Replayer* replayer, Samples& samples) {
  constexpr std::size_t kMinPairs = 3;
  constexpr std::size_t kSmokePairs = 3;
  Phase p;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  for (std::size_t i = 0;
       opt.smoke ? i < kSmokePairs : (i < kMinPairs || Clock::now() < deadline); ++i) {
    const auto op = static_cast<std::int64_t>(i);
    for (const bool compress : {true, false}) {
      ++p.attempted;
      if (compress) w.release();
      trim_heap();
      const double reference = reference_seconds();
      reset_peak_rss();  // the reference kernel's pages are not the op's
      const double rss_mb = status_mb("VmRSS");
      const ScopedSpan span(tracer, compress ? "compress" : "decompress", "op", parent, op);
      Interval iv;
      bool ok = false;
      try {
        iv = compress ? w.compress() : w.decompress();
        p.op_peak_rss_mb = std::max(p.op_peak_rss_mb, status_mb("VmHWM") - rss_mb);
        w.collect(compress);
        ok = compress ? same(w.encoded(), ref.encoded) && w.within_budget()
                      : same(w.decoded(), ref.decoded);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: op %zu %s threw: %s\n", w.name(), i,
                     compress ? "compress" : "decompress", e.what());
      }
      if (!ok) {
        ++p.failed;
        if (compress) break;  // nothing valid to decompress
        continue;
      }
      (compress ? p.compress : p.decompress).push_back({iv.seconds(), reference});
      if (replayer != nullptr) {
        tracer->add(Span{"call", "call", iv.start, iv.end, span.index(), op, false, {}});
        if (compress) {
          replayer->compress(op, span.index(), samples);
        } else {
          replayer->decompress(op, span.index(), samples);
          w.layer_samples(samples, p.compress.back().seconds);
        }
      }
    }
  }
  return p;
}

struct WorkloadResult {
  std::string name;
  std::string description;
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Ungated> ungated;
  std::vector<Metric> per_layer;
};

/// A directory of the harness's own, removed with everything in it on exit.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(fs::path p) : path(std::move(p)) {}
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

WorkloadResult run_workload(std::string_view name, const Options& opt, Tracer* tracer) {
  WorkloadResult r;
  r.name = name;
  const ScopedSpan workload_span(tracer, r.name, "workload", -1, -1);
  const ScratchDir scratch{opt.workdir / ("szp_perf_" + r.name + "_" + std::to_string(::getpid()))};
  const fs::path& dir = scratch.path;

  // Set-up, five times (median reported): generation, input files,
  // construction and one cold round trip, whose outputs every op must match.
  std::unique_ptr<Workload> w;
  std::vector<Timing> setup;
  std::vector<double> generate_s;
  for (int k = 0; k < 5; ++k) {
    w.reset();
    const double reference = reference_seconds();
    const ScopedSpan setup_span(tracer, "setup", "setup", workload_span.index(), -1);
    const auto t0 = Clock::now();
    w = make_workload(name);
#ifdef _OPENMP
    omp_set_num_threads(static_cast<int>(w->threads()));
#endif
    {
      const ScopedSpan gen_span(tracer, "generate", "data", setup_span.index(), -1);
      generate_s.push_back(timed([&] { w->generate(opt.seed, opt.smoke); }).seconds());
    }
    w->prepare(dir);
    (void)w->compress();
    w->collect(true);
    (void)w->decompress();
    w->collect(false);
    setup.push_back({seconds_between(t0, Clock::now()), reference});
  }
  r.description = w->describe() + ", " + std::to_string(w->threads()) + " thread(s)";
  const Reference ref{copy_all(w->encoded()), copy_all(w->decoded())};

  double in_bytes = 0, out_bytes = 0;
  std::vector<double> psnr;
  const auto inputs = w->inputs();
  const auto bounds = w->bounds();
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const DistortionMetrics d =
        w->dtype() == DType::kFloat32
            ? compare_fields(as_values<float>(inputs[k]), as_values<float>(w->decoded()[k]))
            : compare_fields(as_values<double>(inputs[k]), as_values<double>(w->decoded()[k]));
    if (!(d.max_abs_error <= bounds[k])) {
      std::fprintf(stderr, "%s: field %zu max|err| %.6g exceeds eb %.6g\n", w->name(), k,
                   d.max_abs_error, bounds[k]);
      r.correct = false;
    }
    psnr.push_back(d.psnr_db);
    in_bytes += static_cast<double>(inputs[k].size());
  }
  for (const Bytes b : w->encoded()) out_bytes += static_cast<double>(b.size());
  if (!w->within_budget()) {
    std::fprintf(stderr, "%s: set-up round trip exceeded the memory budget\n", w->name());
    r.correct = false;
  }

  if (!reset_peak_rss()) std::fprintf(stderr, "note: VmHWM cannot be reset here\n");
  Samples samples;
  const bool traced = tracer != nullptr;
  const double phase_seconds = traced ? opt.seconds / 2 : opt.seconds;
  const Phase plain = run_phase(*w, ref, opt, phase_seconds, nullptr, -1, nullptr, samples);
  r.attempted = plain.attempted;
  r.failed = plain.failed;

  // Timings are medians scaled to the reference host state (see
  // reference_seconds); the raw medians, tails and reference print ungated.
  const auto raw = [](const std::vector<Timing>& v) {
    std::vector<double> s;
    for (const Timing& t : v) s.push_back(t.seconds);
    return s;
  };
  std::vector<double> references;
  for (const auto* v : {&plain.compress, &plain.decompress}) {
    for (const Timing& t : *v) references.push_back(t.reference);
  }
  const std::string n_ops = "n=" + std::to_string(plain.compress.size());
  r.end_to_end = {
      {"setup_s", median_scaled(setup), "s"},
      {"compress_gbps", in_bytes / median_scaled(plain.compress) / 1e9, "GB/s"},
      {"decompress_gbps", in_bytes / median_scaled(plain.decompress) / 1e9, "GB/s"},
      {"ratio", in_bytes / out_bytes, "x"},
      // Median over fields: a minimum over 32 fields swings by seed.
      {"psnr_db", median(psnr), "dB"},
      {"op_peak_rss_mb", plain.op_peak_rss_mb, "MB"},
  };
  r.ungated = {
      {{"setup_raw_s", median(raw(setup)), "s"}, "n=" + std::to_string(setup.size())},
      {{"compress_raw_gbps", in_bytes / median(raw(plain.compress)) / 1e9, "GB/s"}, n_ops},
      {{"decompress_raw_gbps", in_bytes / median(raw(plain.decompress)) / 1e9, "GB/s"}, n_ops},
      tail("compress_tail_s", raw(plain.compress)),
      tail("decompress_tail_s", raw(plain.decompress)),
      {{"reference_s", median(references), "s"},
       "nominal " + std::to_string(kReferenceNominalSeconds)},
  };

  if (traced) {
    Replayer replayer(*w, *tracer);
    replayer.warm();
    const std::size_t first_span = tracer->spans().size();
    const Phase t = run_phase(*w, ref, opt, phase_seconds, tracer, workload_span.index(),
                              &replayer, samples);
    r.attempted += t.attempted;
    r.failed += t.failed;

    // Self time per (op, layer), then the median over ops.
    const std::vector<double> self = tracer->self_seconds();
    std::map<std::string, std::map<std::int64_t, double>> by_layer;
    for (std::size_t i = first_span; i < tracer->spans().size(); ++i) {
      const Span& s = tracer->spans()[i];
      for (const auto& [cat, metric] : kSelfTimeLayers) {
        if (s.cat == cat) by_layer[metric][s.op] += self[i];
      }
    }
    for (const auto& [metric, per_op] : by_layer) {
      for (const auto& [op, v] : per_op) samples[metric].push_back(v);
    }
    samples["data.generate_s"] = generate_s;
    samples["selector.ratio_regret"] = {replayer.ratio_regret()};
    samples["workspace.created"] = {static_cast<double>(replayer.workspaces_created())};
    samples["trace.overhead_frac"] = {median_scaled(t.compress) / median_scaled(plain.compress) -
                                      1.0};
    samples["trace.replay_identical_frac"] = {replayer.identical_frac()};
    for (const MetricDef& m : kPerLayer) {
      const auto it = samples.find(m.name);
      r.per_layer.push_back({m.name, it == samples.end() ? 0.0 : median(it->second), m.unit});
    }
  }
  r.correct = r.correct && r.failed == 0;
  return r;
}

// --- Output ----------------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics, const std::string& prefix) {
  std::string s;
  for (const Metric& m : metrics) {
    if (!s.empty()) s += ", ";
    s += "\"" + prefix + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  return s;
}

void print_result(const WorkloadResult& r) {
  std::printf("workload %s: %s\n", r.name.c_str(), r.description.c_str());
  std::printf("  ops: %zu attempted, %zu failed%s\n", r.attempted, r.failed,
              r.correct ? "" : "  ** INCORRECT **");
  for (const Metric& m : r.end_to_end) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [m, note] : r.ungated) {
    std::printf("  %-36s %14.6g %s  (%s, not gated)\n", m.name.c_str(), m.value, m.unit.c_str(),
                note.c_str());
  }
  for (const Metric& m : r.per_layer) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void write_json(const std::string& path, const Options& opt,
                const std::vector<WorkloadResult>& results) {
  std::ofstream f(path, std::ios::trunc);
  f << "{\"seed\": " << opt.seed << ", \"seconds\": " << number(opt.seconds)
    << ", \"smoke\": " << (opt.smoke ? "true" : "false")
    << ", \"traced\": " << (opt.trace_path.empty() ? "false" : "true") << ", \"workloads\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    f << (i ? ", " : "") << "\"" << r.name << "\": {\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"end_to_end\": {" << metrics_json(r.end_to_end, "") << "}, \"ungated\": {";
    for (std::size_t k = 0; k < r.ungated.size(); ++k) {
      const auto& [m, note] = r.ungated[k];
      f << (k ? ", " : "") << "\"" << m.name << "\": {\"value\": " << number(m.value)
        << ", \"unit\": \"" << m.unit << "\", \"note\": \"" << note << "\"}";
    }
    f << "}, \"per_layer\": {" << metrics_json(r.per_layer, "") << "}}";
  }
  f << "}}\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name>|all [--seed N] [--seconds S] [--json FILE]\n"
               "          [--trace FILE] [--workdir DIR] [--smoke]\n"
               "workloads: rough-1d batch-2d-f64 slabs-3d file-3d\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--workload" && has_value) opt.workload = argv[++i];
      else if (arg == "--seed" && has_value) opt.seed = std::stoull(argv[++i]);
      else if (arg == "--seconds" && has_value) opt.seconds = std::stod(argv[++i]);
      else if (arg == "--json" && has_value) opt.json_path = argv[++i];
      else if (arg == "--trace" && has_value) opt.trace_path = argv[++i];
      else if (arg == "--workdir" && has_value) opt.workdir = argv[++i];
      else if (arg == "--smoke") opt.smoke = true;
      else return usage(argv[0]);
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  std::vector<std::string_view> names;
  for (const std::string_view w : kWorkloads) {
    if (opt.workload == "all" || opt.workload == w) names.push_back(w);
  }
  if (names.empty() || !(opt.seconds > 0)) return usage(argv[0]);
  pin_mmap_threshold();

  std::unique_ptr<Tracer> tracer;
  if (!opt.trace_path.empty()) tracer = std::make_unique<Tracer>();
  std::vector<WorkloadResult> results;
  try {
    if (opt.workdir.empty()) opt.workdir = fs::temp_directory_path();
    for (const std::string_view name : names) {
      results.push_back(run_workload(name, opt, tracer.get()));
      print_result(results.back());
    }
    if (!opt.json_path.empty()) write_json(opt.json_path, opt, results);
    if (tracer) tracer->write_chrome_json(opt.trace_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_harness: %s\n", e.what());
    return 1;
  }

  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  std::string metrics;
  for (const WorkloadResult& r : results) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    const std::string prefix = names.size() > 1 ? r.name + "." : "";
    const std::string m = metrics_json(tracer ? r.per_layer : r.end_to_end, prefix);
    metrics += (metrics.empty() ? "" : ", ") + m;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return correct ? 0 : 1;
}
