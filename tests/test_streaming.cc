// Blocked/streaming container tests (paper §V-A.3: by-block compression of
// fields larger than device memory).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hh"
#include "core/metrics.hh"
#include "core/streaming.hh"

namespace {

using namespace szp;

std::vector<float> field(const Extents& ext, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(ext.count());
  float acc = 0.0f;
  for (auto& x : v) {
    acc = 0.99f * acc + 0.03f * dist(rng);
    x = acc;
  }
  return v;
}

StreamingConfig config_with(std::size_t max_slab, double eb = 1e-3) {
  StreamingConfig cfg;
  cfg.base.eb = ErrorBound::relative(eb);
  cfg.max_slab_elems = max_slab;
  return cfg;
}

class StreamingRanks : public ::testing::TestWithParam<int> {};

Extents rank_extents(int rank) {
  return rank == 1   ? Extents::d1(40000)
         : rank == 2 ? Extents::d2(60, 500)
                     : Extents::d3(24, 30, 40);
}

TEST_P(StreamingRanks, RoundTripAcrossSlabs) {
  const int rank = GetParam();
  const Extents ext = rank_extents(rank);
  const auto data = field(ext, static_cast<std::uint32_t>(rank));

  const StreamingCompressor comp(config_with(5000));
  const auto c = comp.compress(data, ext);
  EXPECT_GT(c.stats.slabs.size(), 1u);  // actually partitioned

  const auto d = StreamingCompressor::decompress(c.bytes);
  EXPECT_EQ(d.extents, ext);
  ASSERT_EQ(d.data.size(), data.size());
  EXPECT_LT(compare_fields(data, d.data).max_abs_error, c.stats.eb_abs);
}

TEST_P(StreamingRanks, UnlimitedSlabSizeIsOneSlab) {
  // A slab limit past the field is one slab, even a limit near SIZE_MAX on
  // a 1-D field, where the ceiling division for the slab count would wrap
  // to zero and write an empty container that every decode rejects.
  const int rank = GetParam();
  const Extents ext = rank_extents(rank);
  const auto data = field(ext, static_cast<std::uint32_t>(rank));

  const auto c = StreamingCompressor(config_with(std::numeric_limits<std::size_t>::max()))
                     .compress(data, ext);
  ASSERT_EQ(c.stats.slabs.size(), 1u);
  EXPECT_EQ(StreamingCompressor::slab_count(c.bytes), 1u);

  const auto d = StreamingCompressor::decompress(c.bytes);
  EXPECT_EQ(d.extents, ext);
  ASSERT_EQ(d.data.size(), data.size());
  EXPECT_LT(compare_fields(data, d.data).max_abs_error, c.stats.eb_abs);
}

INSTANTIATE_TEST_SUITE_P(Ranks, StreamingRanks, ::testing::Values(1, 2, 3));

TEST(Streaming, MatchesSingleShotQuality) {
  // Slabbed compression must honor the same absolute bound the single-shot
  // compressor resolves, because the relative bound is resolved field-wide.
  const Extents ext = Extents::d2(80, 100);
  const auto data = field(ext, 5);

  CompressConfig single_cfg;
  single_cfg.eb = ErrorBound::relative(1e-3);
  const auto single = Compressor(single_cfg).compress(data, ext);

  const auto streamed = StreamingCompressor(config_with(1000)).compress(data, ext);
  EXPECT_DOUBLE_EQ(streamed.stats.eb_abs, single.stats.eb_abs);

  const auto d = StreamingCompressor::decompress(streamed.bytes);
  EXPECT_LT(compare_fields(data, d.data).max_abs_error, single.stats.eb_abs);
}

TEST(Streaming, SlabCountAndCoverage) {
  const Extents ext = Extents::d3(10, 8, 9);  // 720 elems, plane = 72
  const auto data = field(ext, 6);
  const auto c = StreamingCompressor(config_with(200)).compress(data, ext);
  // thickness = 200/72 = 2 -> 5 slabs of nz=2.
  EXPECT_EQ(c.stats.slabs.size(), 5u);
  EXPECT_EQ(StreamingCompressor::slab_count(c.bytes), 5u);
  std::size_t covered = 0;
  for (const auto& s : c.stats.slabs) {
    EXPECT_EQ(s.offset, covered);
    covered += s.extents.count();
  }
  EXPECT_EQ(covered, ext.count());
}

TEST(Streaming, PartialSlabAccess) {
  const Extents ext = Extents::d2(64, 128);
  const auto data = field(ext, 7);
  const auto c = StreamingCompressor(config_with(128 * 16)).compress(data, ext);
  ASSERT_EQ(c.stats.slabs.size(), 4u);

  SlabInfo info;
  const auto slab2 = StreamingCompressor::decompress_slab(c.bytes, 2, &info);
  EXPECT_EQ(info.offset, 2u * 16 * 128);
  ASSERT_EQ(slab2.data.size(), 16u * 128);
  // The slab matches the corresponding region of the original.
  for (std::size_t i = 0; i < slab2.data.size(); ++i) {
    EXPECT_NEAR(slab2.data[i], data[info.offset + i], c.stats.eb_abs) << i;
  }

  EXPECT_THROW((void)StreamingCompressor::decompress_slab(c.bytes, 4), std::out_of_range);
}

TEST(Streaming, UnevenFinalSlab) {
  const Extents ext = Extents::d1(1050);  // 3 slabs: 400, 400, 250
  const auto data = field(ext, 8);
  const auto c = StreamingCompressor(config_with(400)).compress(data, ext);
  ASSERT_EQ(c.stats.slabs.size(), 3u);
  EXPECT_EQ(c.stats.slabs[2].extents.nx, 250u);
  const auto d = StreamingCompressor::decompress(c.bytes);
  EXPECT_LT(compare_fields(data, d.data).max_abs_error, c.stats.eb_abs);
}

TEST(Streaming, DoubleFieldsSupported) {
  const Extents ext = Extents::d1(5000);
  std::vector<double> data(ext.count());
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  double acc = 0.0;
  for (auto& x : data) {
    acc = 0.99 * acc + 0.03 * dist(rng);
    x = acc;
  }
  const auto c = StreamingCompressor(config_with(1024, 1e-5)).compress(data, ext);
  const auto d = StreamingCompressor::decompress(c.bytes);
  ASSERT_EQ(d.dtype, DType::kFloat64);
  EXPECT_LT(compare_fields(data, d.data_f64).max_abs_error, c.stats.eb_abs);
}

TEST(Streaming, PerSlabWorkflowSelection) {
  // A field whose first half is constant and second half is noise: with
  // auto workflow, slabs choose different codecs.
  const Extents ext = Extents::d1(40000);
  std::vector<float> data(ext.count(), 1.0f);
  std::mt19937 rng(12);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (std::size_t i = ext.count() / 2; i < ext.count(); ++i) data[i] = dist(rng);

  StreamingConfig cfg = config_with(10000, 1e-3);
  cfg.base.workflow = Workflow::kAuto;
  const auto c = StreamingCompressor(cfg).compress(data, ext);
  ASSERT_EQ(c.stats.slabs.size(), 4u);
  // Constant slabs route to the sub-bit rANS stage.  On the 10k-element
  // noise slabs the wide-alphabet Huffman codebook (~5 KB) and rANS model
  // table (~4 KB) sink both entropy coders, so the cost model takes the
  // LZ+Huffman tier whose framing is a few hundred bytes — per-slab
  // selection picks a different codec than whole-field selection would.
  EXPECT_EQ(c.stats.slabs.front().workflow, Workflow::kRans);
  EXPECT_EQ(c.stats.slabs.back().workflow, Workflow::kLzh);
  EXPECT_GT(c.stats.slabs.front().ratio, c.stats.slabs.back().ratio);
  // The mixed-codec container must still round-trip within the bound.
  const auto d = StreamingCompressor::decompress(c.bytes);
  EXPECT_LT(compare_fields(data, d.data).max_abs_error, c.stats.eb_abs);
}

TEST(StreamingParallel, WorkerSweepKeepsContainersByteIdentical) {
  // The pipeline's worker count must never leak into the container: sweep
  // 2, 4 and hardware_concurrency workers against a serial (one-worker)
  // reference and require identical bytes from all of them.
  const Extents ext = Extents::d2(48, 400);
  const auto data = field(ext, 21);
  StreamingConfig cfg = config_with(2400);

  cfg.workers = 1;
  const auto reference = StreamingCompressor(cfg).compress(data, ext);
  ASSERT_GT(reference.stats.slabs.size(), 4u);
  EXPECT_EQ(reference.stats.workers_used, 1u);

  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}, hw}) {
    cfg.workers = workers;
    const auto c = StreamingCompressor(cfg).compress(data, ext);
    EXPECT_EQ(c.bytes, reference.bytes) << workers << " workers";
    EXPECT_LE(c.stats.workers_used, workers);
    EXPECT_GE(c.stats.workers_used, 1u);
  }
}

TEST(StreamingParallel, PerCallConfigOverrideMatchesConstructedConfig) {
  // One warm instance serving per-call configs must produce byte-identical
  // containers to instances constructed with those configs — the override
  // swaps the orchestration settings, never the compression result.
  const Extents ext = Extents::d2(40, 500);
  const auto data = field(ext, 31);

  StreamingConfig serial_cfg = config_with(3000);
  serial_cfg.workers = 1;
  StreamingConfig parallel_cfg = serial_cfg;
  parallel_cfg.workers = 3;

  const StreamingCompressor shared(parallel_cfg);
  const auto via_serial_override = shared.compress(data, ext, serial_cfg);
  const auto via_parallel_override = shared.compress(data, ext, parallel_cfg);
  const auto dedicated = StreamingCompressor(serial_cfg).compress(data, ext);

  EXPECT_EQ(via_serial_override.bytes, dedicated.bytes);
  EXPECT_EQ(via_parallel_override.bytes, dedicated.bytes);
}

TEST(StreamingParallel, SerialAndParallelDecompressAgree) {
  // One worker must genuinely serialize the read side too, and both widths
  // must reconstruct the identical field.
  const Extents ext = Extents::d1(25000);
  const auto data = field(ext, 23);
  const auto c = StreamingCompressor(config_with(3000)).compress(data, ext);

  StreamingConfig serial_cfg;
  serial_cfg.workers = 1;
  const auto serial = StreamingCompressor::decompress(c.bytes, serial_cfg);

  StreamingConfig parallel_cfg;
  parallel_cfg.workers = 4;
  const auto parallel = StreamingCompressor::decompress(c.bytes, parallel_cfg);

  ASSERT_EQ(serial.data.size(), data.size());
  EXPECT_EQ(serial.data, parallel.data);
  EXPECT_LT(compare_fields(data, serial.data).max_abs_error, c.stats.eb_abs);
}

/// The widths every fault-determinism test sweeps: serial, two workers,
/// and four overlapping workers.
std::vector<StreamingConfig> fault_schedules(const StreamingConfig& base) {
  std::vector<StreamingConfig> out(3, base);
  out[0].workers = 1;
  out[1].workers = 2;
  out[2].workers = 4;
  return out;
}

TEST(StreamingParallel, MidSlabDecodeErrorIsDeterministic) {
  // Corrupt one mid-index slab and decode repeatedly under every schedule:
  // the surfaced DecodeError must be byte-for-byte the same every run,
  // regardless of worker count or interleaving.
  const Extents ext = Extents::d1(20000);
  const auto data = field(ext, 24);
  auto c = StreamingCompressor(config_with(3000)).compress(data, ext);
  ASSERT_GE(c.stats.slabs.size(), 5u);

  const auto idx = StreamingCompressor::index(c.bytes);
  const auto& victim = idx.slabs[2];
  const std::size_t pos =
      static_cast<std::size_t>(victim.bytes.data() - c.bytes.data()) + victim.bytes.size() / 2;
  c.bytes[pos] ^= 0xFF;  // invalidates slab 2's checksum, nothing else

  std::string first_message;
  for (const StreamingConfig& cfg : fault_schedules(StreamingConfig{})) {
    for (int run = 0; run < 4; ++run) {
      try {
        (void)StreamingCompressor::decompress(c.bytes, cfg);
        FAIL() << "corrupt slab was accepted on run " << run << ", workers " << cfg.workers;
      } catch (const DecodeError& e) {
        if (first_message.empty()) {
          first_message = e.what();
        } else {
          EXPECT_EQ(first_message, std::string(e.what()))
              << "run " << run << ", workers " << cfg.workers;
        }
      }
    }
  }
}

TEST(StreamingParallel, MidSlabCompressFaultIsDeterministic) {
  // A non-finite value in a mid-index slab under an absolute bound faults
  // inside the overlapped pipeline (the field-range scan is skipped for
  // absolute bounds, so the *slab's own* compress pass detects it).  The
  // error must surface identically on every run.
  const Extents ext = Extents::d1(24000);
  auto data = field(ext, 25);
  data[2 * 3000 + 17] = std::nanf("");  // inside slab 2 of 8

  StreamingConfig base;
  base.base.eb = ErrorBound::absolute(1e-3);
  base.max_slab_elems = 3000;
  const StreamingCompressor comp(base);

  std::string first_message;
  for (const StreamingConfig& cfg : fault_schedules(base)) {
    for (int run = 0; run < 4; ++run) {
      try {
        (void)comp.compress(data, ext, cfg);
        FAIL() << "non-finite slab was accepted on run " << run << ", workers " << cfg.workers;
      } catch (const std::invalid_argument& e) {
        if (first_message.empty()) {
          first_message = e.what();
        } else {
          EXPECT_EQ(first_message, std::string(e.what()))
              << "run " << run << ", workers " << cfg.workers;
        }
      }
    }
  }
}

TEST(StreamingParallel, CompressManyFanOutStaysOneLevel) {
  // Fields fan out across workers; each nested per-field compress must
  // detect the outer region and run single-worker, keeping the fan-out
  // explicitly one-level (observable via stats.workers_used).
  StreamingConfig cfg = config_with(1000);
  cfg.workers = 4;
  const StreamingCompressor comp(cfg);

  const std::vector<Extents> exts{Extents::d1(4096), Extents::d1(6000), Extents::d1(2500)};
  std::vector<std::vector<float>> storage;
  storage.reserve(exts.size());
  std::vector<std::span<const float>> fields;
  for (std::size_t f = 0; f < exts.size(); ++f) {
    storage.push_back(field(exts[f], static_cast<std::uint32_t>(30 + f)));
    fields.emplace_back(storage.back());
  }

  const auto batch = comp.compress_many(fields, exts);
  StreamingConfig serial_cfg = cfg;
  serial_cfg.workers = 1;
  const auto serial = StreamingCompressor(serial_cfg).compress_many(fields, exts);
  ASSERT_EQ(batch.size(), exts.size());
  ASSERT_EQ(serial.size(), exts.size());
  for (std::size_t f = 0; f < batch.size(); ++f) {
    EXPECT_EQ(batch[f].stats.workers_used, 1u) << "field " << f;
    EXPECT_EQ(batch[f].bytes, comp.compress(fields[f], exts[f]).bytes) << "field " << f;
    EXPECT_EQ(serial[f].bytes, batch[f].bytes) << "field " << f;
  }
}

TEST(StreamingParallel, PhaseTimingsAreReported) {
  const Extents ext = Extents::d1(20000);
  const auto data = field(ext, 27);
  const auto c = StreamingCompressor(config_with(3000)).compress(data, ext);
  // A relative bound forces the field-range scan; compression and packing
  // always run.  Timings are nonnegative wall-clock readings.
  EXPECT_GE(c.stats.phases.range_seconds, 0.0);
  EXPECT_GT(c.stats.phases.compress_seconds, 0.0);
  EXPECT_GE(c.stats.phases.pack_seconds, 0.0);
  EXPECT_GE(c.stats.workers_used, 1u);
}

TEST(StreamingParallel, NonFiniteRejectedInBothEbModes) {
  const Extents ext = Extents::d1(8000);
  auto data = field(ext, 28);
  data[4321] = std::numeric_limits<float>::infinity();

  // Relative bound: the whole-field range scan rejects it up front.
  StreamingConfig rel = config_with(1000);
  EXPECT_THROW((void)StreamingCompressor(rel).compress(data, ext), std::invalid_argument);

  // Absolute bound: the scan is skipped, but the slab's own compress pass
  // still rejects it — on one worker and on two alike.
  StreamingConfig abs = config_with(1000);
  abs.base.eb = ErrorBound::absolute(1e-3);
  abs.workers = 1;
  EXPECT_THROW((void)StreamingCompressor(abs).compress(data, ext), std::invalid_argument);
  abs.workers = 2;
  EXPECT_THROW((void)StreamingCompressor(abs).compress(data, ext), std::invalid_argument);
}

TEST(Streaming, RejectsBadInput) {
  const StreamingCompressor comp;
  std::vector<float> tiny(10, 1.0f);
  EXPECT_THROW((void)comp.compress(tiny, Extents::d1(11)), std::invalid_argument);

  // A single row/plane bigger than the slab limit is a configuration error
  // (slabs split only along the slowest axis).
  StreamingConfig cfg = config_with(5);
  std::vector<float> plane(100, 1.0f);
  EXPECT_THROW((void)StreamingCompressor(cfg).compress(plane, Extents::d2(10, 10)),
               std::invalid_argument);

  std::vector<std::uint8_t> junk{1, 2, 3, 4};
  EXPECT_THROW((void)StreamingCompressor::decompress(junk), std::runtime_error);
}

}  // namespace
