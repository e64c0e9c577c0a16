// Out-of-core streaming tier: the FieldSource/ContainerSink seam, I/O fault
// injection (short reads, mid-slab write errors, truncated files), memory
// budgets, and file-vs-memory container byte identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/error.hh"
#include "core/io/io.hh"
#include "core/serialize.hh"
#include "core/streaming.hh"

namespace {

using namespace szp;
namespace fs = std::filesystem;

std::vector<float> wave(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    v[i] = static_cast<float>(std::sin(x * 0.05) + 0.3 * std::cos(x * 0.017));
  }
  return v;
}

std::span<const std::uint8_t> raw_bytes(const std::vector<float>& v) {
  return {reinterpret_cast<const std::uint8_t*>(v.data()), v.size() * sizeof(float)};
}

/// Scratch directory removed on scope exit.
struct TempDir {
  fs::path dir;
  explicit TempDir(const std::string& tag)
      : dir(fs::temp_directory_path() / ("szp_oocore_" + tag)) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TempDir() { fs::remove_all(dir); }
  [[nodiscard]] fs::path operator/(const std::string& leaf) const { return dir / leaf; }
};

StreamingConfig oocore_cfg(std::size_t workers, std::size_t max_slab_elems) {
  StreamingConfig cfg;
  cfg.base.eb = ErrorBound::absolute(1e-3);
  cfg.base.workflow = Workflow::kHuffman;
  cfg.max_slab_elems = max_slab_elems;
  cfg.workers = workers;
  return cfg;
}

// -- Fault-injecting seam implementations -----------------------------------

/// In-memory source whose reads fail once they touch byte `fail_from` — the
/// shape of a file that is shorter than its declared size (a short read).
/// No view(), so the pipeline must go through read_at().
class ShortReadSource final : public io::FieldSource {
 public:
  ShortReadSource(std::span<const std::uint8_t> bytes, std::size_t fail_from)
      : bytes_(bytes), fail_from_(fail_from) {}

  [[nodiscard]] std::size_t size_bytes() const override { return bytes_.size(); }
  void read_at(std::size_t offset, std::span<std::uint8_t> out) const override {
    if (offset + out.size() > fail_from_) {
      throw std::runtime_error("injected short read at offset " + std::to_string(offset));
    }
    std::memcpy(out.data(), bytes_.data() + offset, out.size());
  }
  [[nodiscard]] std::string name() const override { return "<short-read>"; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t fail_from_;
};

/// In-memory source with no view that records the longest read_at() it
/// served, so a test can see how much one read stages.
class RecordingSource final : public io::FieldSource {
 public:
  explicit RecordingSource(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t size_bytes() const override { return bytes_.size(); }
  void read_at(std::size_t offset, std::span<std::uint8_t> out) const override {
    std::size_t seen = longest_.load();
    while (out.size() > seen && !longest_.compare_exchange_weak(seen, out.size())) {
    }
    std::memcpy(out.data(), bytes_.data() + offset, out.size());
  }
  [[nodiscard]] std::string name() const override { return "<recording>"; }
  [[nodiscard]] std::size_t longest_read() const { return longest_.load(); }

 private:
  std::span<const std::uint8_t> bytes_;
  mutable std::atomic<std::size_t> longest_{0};
};

/// Sink that fails on the Nth write() call — a mid-container disk-full.
class FailingSink final : public io::ContainerSink {
 public:
  explicit FailingSink(std::size_t fail_on_call) : fail_on_(fail_on_call) {}

  void write(std::span<const std::uint8_t> bytes) override {
    if (++calls_ == fail_on_) {
      throw std::runtime_error("injected write fault on call " + std::to_string(calls_));
    }
    written_ += bytes.size();
  }
  [[nodiscard]] std::size_t bytes_written() const override { return written_; }
  [[nodiscard]] std::string name() const override { return "<failing>"; }

 private:
  std::size_t fail_on_;
  std::size_t calls_ = 0;
  std::size_t written_ = 0;
};

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// -- Fault injection --------------------------------------------------------

TEST(OocoreFaults, ShortReadPropagatesLowestIndexDeterministically) {
  const Extents ext = Extents::d2(64, 256);
  const auto data = wave(ext.count());
  const auto bytes = raw_bytes(data);
  // 16 slabs of 4 planes each; reads touching the second half fail, so slabs
  // 8..15 all fault.  The engine must report slab 8's read — the lowest
  // faulting index — no matter how the workers interleave.
  StreamingCompressor sc(oocore_cfg(4, 4 * 256));

  const auto run = [&](std::size_t workers) {
    ShortReadSource src(bytes, bytes.size() / 2);
    io::VectorSink sink;
    return error_of([&] { (void)sc.compress_stream(src, DType::kFloat32, ext, sink,
                                                   oocore_cfg(workers, 4 * 256)); });
  };

  const std::string reference = run(1);  // serial: trivially the lowest index
  EXPECT_NE(reference.find("injected short read"), std::string::npos) << reference;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(run(4), reference) << "run " << i;
  }

  // The queue drained cleanly: the same compressor still works.
  io::SpanFieldSource good(bytes);
  io::VectorSink sink;
  EXPECT_NO_THROW((void)sc.compress_stream(good, DType::kFloat32, ext, sink));
}

TEST(OocoreFaults, MidSlabWriteErrorPropagatesDeterministically) {
  const Extents ext = Extents::d2(64, 256);
  const auto data = wave(ext.count());
  const auto bytes = raw_bytes(data);
  StreamingCompressor sc(oocore_cfg(4, 4 * 256));

  const auto run = [&](std::size_t workers) {
    io::SpanFieldSource src(bytes);
    FailingSink sink(4);  // header + a few slabs land, then the disk "fills"
    return error_of([&] { (void)sc.compress_stream(src, DType::kFloat32, ext, sink,
                                                   oocore_cfg(workers, 4 * 256)); });
  };

  const std::string reference = run(1);
  EXPECT_NE(reference.find("injected write fault"), std::string::npos) << reference;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(run(4), reference) << "run " << i;
  }

  io::SpanFieldSource good(bytes);
  io::VectorSink sink;
  EXPECT_NO_THROW((void)sc.compress_stream(good, DType::kFloat32, ext, sink));
}

TEST(OocoreFaults, TruncatedRawFileIsRefusedUpFront) {
  TempDir tmp("truncated_raw");
  const auto data = wave(1000);
  io::write_file(tmp / "short.f32", raw_bytes(data));  // 1000 floats on disk ...

  StreamingCompressor sc(oocore_cfg(2, 512));
  for (const bool mmap : {true, false}) {
    StreamingConfig cfg = oocore_cfg(2, 512);
    cfg.use_mmap = mmap;
    try {  // ... but the extents declare 1024: both ingest modes must refuse.
      (void)StreamingCompressor(cfg).compress_file(tmp / "short.f32", tmp / "out.szpc",
                                                   Extents::d1(1024), DType::kFloat32);
      FAIL() << "truncated input accepted (mmap=" << mmap << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("extents declare"), std::string::npos) << e.what();
    }
  }
}

TEST(OocoreFaults, TruncatedContainerFileIsACleanDecodeError) {
  TempDir tmp("truncated_container");
  const Extents ext = Extents::d2(48, 128);
  const auto data = wave(ext.count());
  io::write_file(tmp / "field.f32", raw_bytes(data));
  StreamingCompressor sc(oocore_cfg(2, 4 * 128));
  (void)sc.compress_file(tmp / "field.f32", tmp / "field.szpc", ext, DType::kFloat32);

  const auto container = io::read_file(tmp / "field.szpc");
  for (const double frac : {0.0, 0.1, 0.5, 0.9}) {
    const std::size_t keep = static_cast<std::size_t>(frac * static_cast<double>(container.size()));
    io::write_file(tmp / "cut.szpc", std::span<const std::uint8_t>(container.data(), keep));
    for (const bool mmap : {true, false}) {
      StreamingConfig cfg;
      cfg.use_mmap = mmap;
      if (keep == 0 && mmap) continue;  // an empty file cannot be mapped; kAuto degrades
      try {
        (void)StreamingCompressor::decompress_file(tmp / "cut.szpc", tmp / "out.f32", cfg);
        FAIL() << "truncated container accepted at " << keep << " bytes (mmap=" << mmap << ")";
      } catch (const DecodeError&) {
        // Clean structured rejection — exactly what the fuzz contract demands.
      }
    }
  }
}

/// "<kind> in <segment>" of the DecodeError `decode` throws, or "accepted".
std::string verdict_of(const std::function<void()>& decode) {
  try {
    decode();
  } catch (const DecodeError& e) {
    return std::string(decode_error_kind_name(e.kind())) + " in " + e.segment();
  }
  return "accepted";
}

/// The verdicts of the three container decode routes on `bytes`: in memory,
/// file through mmap, file through positional reads (`--no-mmap`).
std::vector<std::string> route_verdicts(const TempDir& tmp, std::span<const std::uint8_t> bytes) {
  io::write_file(tmp / "damaged.szpc", bytes);
  std::vector<std::string> verdicts{
      verdict_of([&] { (void)StreamingCompressor::decompress(bytes); })};
  for (const bool mmap : {true, false}) {
    StreamingConfig cfg;
    cfg.use_mmap = mmap;
    verdicts.push_back(verdict_of([&] {
      (void)StreamingCompressor::decompress_file(tmp / "damaged.szpc", tmp / "out.f32", cfg);
    }));
  }
  return verdicts;
}

/// A committed corpus artifact: the recorded verdict, target and mutant
/// (layout: u32 magic, u8 version, u8 kind, str target, str segment,
/// vec<u8> archive — tools/fuzz_decode.cc).
struct Artifact {
  std::string verdict;
  std::string target;
  std::vector<std::uint8_t> archive;
};

Artifact read_artifact(const fs::path& path) {
  const auto bytes = io::read_file(path);
  ByteReader r(bytes);
  (void)r.get<std::uint32_t>();
  (void)r.get<std::uint8_t>();
  const auto kind = static_cast<DecodeErrorKind>(r.get<std::uint8_t>());
  const auto target = r.get_vector<char>();
  const auto segment = r.get_vector<char>();
  Artifact a;
  a.verdict = std::string(decode_error_kind_name(kind)) + " in " +
              std::string(segment.begin(), segment.end());
  a.target.assign(target.begin(), target.end());
  a.archive = r.get_vector<std::uint8_t>();
  return a;
}

TEST(OocoreFaults, DamagedContainerGetsOneVerdictOnEveryRoute) {
  // Every route parses the container with one directory reader, so a cut
  // gets one (kind, segment) whether the bytes are in memory, mapped, or
  // read positionally — a length past the end is length-overflow on all.
  TempDir tmp("one_verdict");
  const Extents ext = Extents::d2(48, 128);
  const auto container =
      StreamingCompressor(oocore_cfg(2, 4 * 128)).compress(wave(ext.count()), ext).bytes;
  std::vector<std::size_t> cuts{3, 39, 40, 47, 60};
  for (const double frac : {0.1, 0.5, 0.9}) {
    cuts.push_back(static_cast<std::size_t>(frac * static_cast<double>(container.size())));
  }
  for (const std::size_t keep : cuts) {
    const auto v = route_verdicts(tmp, std::span<const std::uint8_t>(container.data(), keep));
    EXPECT_NE(v[0], "accepted") << keep << " bytes";
    EXPECT_EQ(v[1], v[0]) << "mmap route, " << keep << " bytes";
    EXPECT_EQ(v[2], v[0]) << "viewless route, " << keep << " bytes";
  }
  EXPECT_EQ(route_verdicts(tmp, std::span<const std::uint8_t>(container.data(), 40))[2],
            "length-overflow in header");  // the slab count outruns the bytes left

  // Every committed streaming mutant reproduces its recorded verdict on all
  // three routes, whichever route captured it.
  std::size_t streaming_artifacts = 0;
  for (const auto& entry : fs::directory_iterator(SZP_CORPUS_DIR)) {
    const Artifact a = read_artifact(entry.path());
    if (a.target.rfind("streaming", 0) != 0) continue;
    ++streaming_artifacts;
    for (const std::string& v : route_verdicts(tmp, a.archive)) {
      EXPECT_EQ(v, a.verdict) << entry.path().filename();
    }
  }
  EXPECT_GE(streaming_artifacts, 3u);
  const Artifact cut =
      read_artifact(fs::path(SZP_CORPUS_DIR) / "length-overflow__slab-directory__no-mmap.szpf");
  EXPECT_EQ(route_verdicts(tmp, cut.archive),
            std::vector<std::string>(3, "length-overflow in slab directory"));
}

// -- Byte identity: file path vs in-memory path -----------------------------

TEST(OocoreIdentity, WorkerSweepFileMatchesMemory) {
  TempDir tmp("worker_sweep");
  const Extents ext = Extents::d2(96, 128);
  const auto data = wave(ext.count());
  io::write_file(tmp / "field.f32", raw_bytes(data));

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const StreamingConfig cfg = oocore_cfg(workers, 8 * 128);
    const StreamingCompressor sc(cfg);
    const auto memory = sc.compress(data, ext);
    for (const bool mmap : {true, false}) {
      StreamingConfig fcfg = cfg;
      fcfg.use_mmap = mmap;
      const auto stats = StreamingCompressor(fcfg).compress_file(
          tmp / "field.f32", tmp / "field.szpc", ext, DType::kFloat32);
      EXPECT_EQ(io::read_file(tmp / "field.szpc"), memory.bytes)
          << workers << " workers, mmap=" << mmap;
      EXPECT_EQ(stats.compressed_bytes, memory.bytes.size());

      const auto info =
          StreamingCompressor::decompress_file(tmp / "field.szpc", tmp / "out.f32", fcfg);
      EXPECT_EQ(info.extents.count(), ext.count());
      const auto reference = StreamingCompressor::decompress(memory.bytes, fcfg);
      EXPECT_EQ(io::read_file(tmp / "out.f32"),
                std::vector<std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(reference.data.data()),
                    reinterpret_cast<const std::uint8_t*>(reference.data.data() +
                                                          reference.data.size())))
          << workers << " workers, mmap=" << mmap;
    }
  }
}

// -- Memory budget ----------------------------------------------------------

TEST(OocoreBudget, LargerThanBudgetFieldRoundTripsWithinBudget) {
  TempDir tmp("budget_roundtrip");
  const Extents ext = Extents::d2(256, 1024);  // 1 MB of raw float32
  const auto data = wave(ext.count());
  io::write_file(tmp / "field.f32", raw_bytes(data));

  StreamingConfig cfg = oocore_cfg(4, 16 * 1024);
  cfg.memory_budget = std::size_t{256} << 10;  // 256 KB — a quarter of the field
  cfg.use_mmap = false;                        // positional reads: residency is real
  ASSERT_GT(raw_bytes(data).size(), cfg.memory_budget);

  const StreamingCompressor sc(cfg);
  const auto stats = sc.compress_file(tmp / "field.f32", tmp / "field.szpc", ext,
                                      DType::kFloat32);
  EXPECT_GT(stats.peak_resident_bytes, 0u);
  EXPECT_LE(stats.peak_resident_bytes, cfg.memory_budget);
  EXPECT_EQ(StreamingCompressor::slab_count(io::read_file(tmp / "field.szpc")),
            stats.slabs.size());

  // The budgeted file container matches the in-memory compress under the
  // same config — the budget shapes the plan, not the bytes.
  const auto memory = sc.compress(data, ext);
  EXPECT_EQ(io::read_file(tmp / "field.szpc"), memory.bytes);

  // Decoded-slab buffers are recycled within a run and stay on the
  // residency meter for as long as the run holds them, so the peak covers
  // at least the largest decoded slab and still fits the budget.
  for (const std::size_t workers : {1u, 4u}) {
    StreamingConfig dcfg = cfg;
    dcfg.workers = workers;
    const auto info =
        StreamingCompressor::decompress_file(tmp / "field.szpc", tmp / "restored.f32", dcfg);
    EXPECT_EQ(info.extents.count(), ext.count());
    ASSERT_GT(info.stats.slabs.size(), 1u);
    std::size_t largest_slab_bytes = 0;
    for (const SlabInfo& slab : info.stats.slabs) {
      largest_slab_bytes = std::max(largest_slab_bytes, slab.extents.count() * sizeof(float));
    }
    EXPECT_LE(info.stats.peak_resident_bytes, cfg.memory_budget) << workers << " workers";
    EXPECT_GE(info.stats.peak_resident_bytes, largest_slab_bytes) << workers << " workers";

    const auto restored_bytes = io::read_file(tmp / "restored.f32");
    ASSERT_EQ(restored_bytes.size(), data.size() * sizeof(float));
    std::vector<float> restored(data.size());
    std::memcpy(restored.data(), restored_bytes.data(), restored_bytes.size());
    double max_err = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      max_err = std::max(max_err, std::abs(static_cast<double>(restored[i]) - data[i]));
    }
    EXPECT_LE(max_err, 1e-3 + 1e-12) << workers << " workers";
  }
}

TEST(OocoreBudget, BudgetedContainerIgnoresWorkerCount) {
  // The budget sizes slabs for a fixed worker model, so the worker count
  // sets only how wide the run is: every width writes the same container,
  // and a run wider than the model narrows to stay within the budget.
  TempDir tmp("budget_widths");
  const Extents ext = Extents::d2(256, 1024);
  const auto data = wave(ext.count());
  io::write_file(tmp / "field.f32", raw_bytes(data));

  std::vector<std::uint8_t> reference;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    StreamingConfig cfg = oocore_cfg(workers, 16 * 1024);
    cfg.memory_budget = std::size_t{256} << 10;
    cfg.use_mmap = false;
    const auto stats = StreamingCompressor(cfg).compress_file(tmp / "field.f32",
                                                              tmp / "field.szpc", ext,
                                                              DType::kFloat32);
    EXPECT_LE(stats.peak_resident_bytes, cfg.memory_budget) << workers << " workers";
    EXPECT_LE(stats.workers_used, std::min<std::size_t>(workers, 4)) << workers << " workers";
    const auto bytes = io::read_file(tmp / "field.szpc");
    if (reference.empty()) {
      reference = bytes;
      EXPECT_GT(stats.slabs.size(), 1u);
    } else {
      EXPECT_EQ(bytes, reference) << workers << " workers";
    }
  }
}

TEST(OocoreBudget, RelativeBoundScanReadsOneSlabAtATimeWithinBudget) {
  // A relative bound is resolved from the field's range before any slab
  // compresses.  From a source with no view, that scan reads the field slab
  // by slab into the metered staging buffer: no read is longer than one
  // slab, and the run stays within its budget at every width.
  TempDir tmp("budget_relative");
  const Extents ext = Extents::d2(256, 1024);  // 1 MB of raw float32
  const auto data = wave(ext.count());
  for (const std::size_t workers : {1u, 4u}) {
    StreamingConfig cfg = oocore_cfg(workers, 16 * 1024);
    cfg.base.eb = ErrorBound::relative(1e-3);
    cfg.memory_budget = std::size_t{128} << 10;
    RecordingSource src(raw_bytes(data));
    std::size_t slab_bytes = 0;
    {
      io::FileSink sink(tmp / "field.szpc");
      const auto stats =
          StreamingCompressor(cfg).compress_stream(src, DType::kFloat32, ext, sink);
      ASSERT_GT(stats.slabs.size(), 1u);
      for (const SlabInfo& slab : stats.slabs) {
        slab_bytes = std::max(slab_bytes, slab.extents.count() * sizeof(float));
      }
      EXPECT_LE(stats.peak_resident_bytes, cfg.memory_budget) << workers << " workers";
    }
    EXPECT_LE(src.longest_read(), slab_bytes) << workers << " workers";
    EXPECT_EQ(io::read_file(tmp / "field.szpc"), StreamingCompressor(cfg).compress(data, ext).bytes)
        << workers << " workers";
  }
}

TEST(OocoreBudget, BudgetBelowTheDefaultWindowRunsOneSlabAtATime) {
  // One single-plane slab in flight plus one parked slab fits this budget
  // (about 400 KB to compress, 450 KB to decode), the default window of two
  // parked slabs does not (about 600 KB): the run narrows to one worker with
  // a window of one, compress and decode alike.
  TempDir tmp("budget_window_one");
  const Extents ext = Extents::d2(4, 50000);  // one plane is 200 KB
  const auto data = wave(ext.count());
  io::write_file(tmp / "field.f32", raw_bytes(data));

  StreamingConfig cfg = oocore_cfg(4, ext.count());
  cfg.memory_budget = std::size_t{500} << 10;
  cfg.use_mmap = false;
  const auto stats = StreamingCompressor(cfg).compress_file(tmp / "field.f32", tmp / "field.szpc",
                                                            ext, DType::kFloat32);
  EXPECT_EQ(stats.slabs.size(), 4u);
  EXPECT_EQ(stats.workers_used, 1u);
  EXPECT_LE(stats.peak_resident_bytes, cfg.memory_budget);

  const auto info =
      StreamingCompressor::decompress_file(tmp / "field.szpc", tmp / "restored.f32", cfg);
  EXPECT_EQ(info.stats.workers_used, 1u);
  EXPECT_LE(info.stats.peak_resident_bytes, cfg.memory_budget);
  const auto restored = io::read_file(tmp / "restored.f32");
  ASSERT_EQ(restored.size(), data.size() * sizeof(float));
  for (std::size_t i = 0; i < data.size(); ++i) {
    float v = 0.0f;
    std::memcpy(&v, restored.data() + i * sizeof(float), sizeof(float));
    ASSERT_LE(std::abs(static_cast<double>(v) - data[i]), 1e-3 + 1e-12) << "element " << i;
  }
}

TEST(OocoreBudget, TooSmallBudgetIsRefusedWithAClearError) {
  TempDir tmp("budget_refused");
  const Extents ext = Extents::d2(2, 50000);  // one plane alone is ~200 KB
  const auto data = wave(ext.count());
  io::write_file(tmp / "field.f32", raw_bytes(data));

  StreamingConfig cfg = oocore_cfg(2, ext.count());
  cfg.memory_budget = std::size_t{100} << 10;
  try {
    (void)StreamingCompressor(cfg).compress_file(tmp / "field.f32", tmp / "out.szpc", ext,
                                                 DType::kFloat32);
    FAIL() << "undersized compress budget accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("memory budget"), std::string::npos) << e.what();
  }

  // Decode side: build a valid container, then offer a budget that cannot
  // hold even one slab in flight.  Must refuse as a config error — never as
  // a corrupt-stream DecodeError, the container is fine.
  cfg.memory_budget = 0;
  (void)StreamingCompressor(cfg).compress_file(tmp / "field.f32", tmp / "field.szpc", ext,
                                               DType::kFloat32);
  StreamingConfig dec;
  dec.memory_budget = 1024;
  dec.use_mmap = false;
  try {
    (void)StreamingCompressor::decompress_file(tmp / "field.szpc", tmp / "out.f32", dec);
    FAIL() << "undersized decode budget accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("too small to decode"), std::string::npos)
        << e.what();
  }
  // In-memory decode runs the same engine, so the budget binds it too.
  try {
    (void)StreamingCompressor::decompress(io::read_file(tmp / "field.szpc"), dec);
    FAIL() << "undersized in-memory decode budget accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("too small to decode"), std::string::npos)
        << e.what();
  }
}

}  // namespace
