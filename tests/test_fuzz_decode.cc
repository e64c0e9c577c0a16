// Corrupt-archive robustness: the mutation-fuzz campaign, the DecodeError
// taxonomy (every kind constructed at least once, with the failing segment
// named in the error text), and exception propagation out of the simulated
// GPU grid (ISSUE: corrupt-archive hardening).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/checksum.hh"
#include "core/compressor.hh"
#include "core/error.hh"
#include "core/io/io.hh"
#include "core/huffman/bitio.hh"
#include "core/huffman/codebook.hh"
#include "core/huffman/codec.hh"
#include "core/serialize.hh"
#include "core/streaming.hh"
#include "core/types.hh"
#include "sim/launch.hh"
#include "tools/cli.hh"
#include "tools/fuzz_decode.hh"

namespace {

using namespace szp;

// ---------------------------------------------------------------------------
// Archive helpers.  The szp v2 archive is <body><crc32(body) u32le>; the body
// starts with a 46-byte header (magic u32, version u16, rank u8, workflow u8,
// dtype u8, nx/ny/nz u64, eb f64, capacity u32, predictor u8).  For the
// Lorenzo predictor the outlier index vector follows directly: its element
// count (u64) sits at offset 46 and the first index (u64) at offset 54.
// ---------------------------------------------------------------------------

constexpr std::size_t kHeaderBytes = 46;
constexpr std::size_t kOutlierCountOffset = kHeaderBytes;
constexpr std::size_t kFirstOutlierOffset = kHeaderBytes + 8;

/// Re-stamp the trailing CRC-32 so mutations to the body are not masked by
/// the whole-archive checksum.
void restamp_crc(std::vector<std::uint8_t>& archive) {
  ASSERT_GE(archive.size(), 4u);
  const std::uint32_t crc =
      crc32(std::span<const std::uint8_t>(archive.data(), archive.size() - 4));
  std::memcpy(archive.data() + archive.size() - 4, &crc, 4);
}

void splice_u64(std::vector<std::uint8_t>& archive, std::size_t offset, std::uint64_t v) {
  ASSERT_LE(offset + 8, archive.size());
  std::memcpy(archive.data() + offset, &v, 8);
}

/// A smooth 1-D field with one spike large enough to force at least one
/// Lorenzo outlier at eb = 1e-3 (residual ~ 250k quant steps >> radius 512).
std::vector<std::uint8_t> spiked_archive(std::size_t* outlier_count = nullptr) {
  std::vector<float> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(static_cast<float>(i) * 0.01f);
  }
  data[100] = 500.0f;
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  cfg.workflow = Workflow::kHuffman;
  const auto c = Compressor(cfg).compress(data, Extents::d1(data.size()));
  EXPECT_GT(c.stats.outlier_count, 0u);
  if (outlier_count != nullptr) *outlier_count = c.stats.outlier_count;
  return c.bytes;
}

/// Decompress must reject the archive with exactly this kind, and the error
/// text must name the failing segment.
void expect_rejected(std::span<const std::uint8_t> archive, DecodeErrorKind kind,
                     const std::string& segment) {
  try {
    (void)Compressor::decompress(archive);
    FAIL() << "decode accepted a corrupt archive (wanted " << decode_error_kind_name(kind)
           << " in " << segment << ")";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
    EXPECT_EQ(e.segment(), segment) << e.what();
    EXPECT_NE(std::string(e.what()).find(segment), std::string::npos)
        << "what() does not name the segment: " << e.what();
  }
}

// ---------------------------------------------------------------------------
// The campaign itself: every decode path, every mutation class, zero
// contract violations.
// ---------------------------------------------------------------------------

TEST(FuzzDecode, CampaignHoldsTheDecodeContract) {
  std::ostringstream sink;
  fuzz::FuzzConfig cfg;
  const fuzz::FuzzResult res = fuzz::run(cfg, sink);
  std::string joined;
  for (const auto& f : res.failures) joined += "\n  " + f;
  EXPECT_TRUE(res.ok()) << "contract violations:" << joined;
  EXPECT_GT(res.mutations, 1000u);
  EXPECT_GT(res.clean_errors, 0u);
  // Truncation alone guarantees these two kinds across the campaign.
  EXPECT_GT(res.kinds.count(DecodeErrorKind::kTruncated), 0u);
  EXPECT_GT(res.kinds.count(DecodeErrorKind::kChecksumMismatch), 0u);
}

TEST(FuzzDecode, CampaignIsDeterministic) {
  std::ostringstream a, b;
  fuzz::FuzzConfig cfg;
  cfg.seed = 1234;
  const auto r1 = fuzz::run(cfg, a);
  const auto r2 = fuzz::run(cfg, b);
  EXPECT_EQ(r1.mutations, r2.mutations);
  EXPECT_EQ(r1.clean_errors, r2.clean_errors);
  EXPECT_EQ(r1.accepted, r2.accepted);
  EXPECT_EQ(r1.kinds, r2.kinds);
}

// ---------------------------------------------------------------------------
// Taxonomy coverage: construct every DecodeErrorKind at least once, and
// check the error text names the failing segment.
// ---------------------------------------------------------------------------

TEST(FuzzDecode, TruncatedArchiveIsNamed) {
  const std::vector<std::uint8_t> stub = {0x53, 0x5a, 0x50};  // < 4 bytes
  expect_rejected(stub, DecodeErrorKind::kTruncated, "archive");
}

TEST(FuzzDecode, TruncatedHeaderIsNamed) {
  auto archive = spiked_archive();
  // Keep 20 header bytes, re-stamp the CRC so the truncation itself (not the
  // checksum) is what the decoder reports.
  archive.resize(20 + 4);
  restamp_crc(archive);
  expect_rejected(archive, DecodeErrorKind::kTruncated, "header");
}

TEST(FuzzDecode, BadMagicIsNamed) {
  auto archive = spiked_archive();
  archive[0] ^= 0xff;
  restamp_crc(archive);
  expect_rejected(archive, DecodeErrorKind::kBadMagic, "header");
}

TEST(FuzzDecode, BadVersionIsNamed) {
  auto archive = spiked_archive();
  archive[4] = 0xff;  // version u16 at offset 4
  archive[5] = 0x7f;
  restamp_crc(archive);
  expect_rejected(archive, DecodeErrorKind::kBadVersion, "header");
}

TEST(FuzzDecode, BadCodecIdIsNamed) {
  // Splice a codec id past the registered range into the workflow byte
  // (offset 7) of a valid v3 archive and re-stamp the CRC, so the header
  // validation — not the checksum — is what rejects it.
  std::vector<float> data(512);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(static_cast<float>(i) * 0.01f);
  }
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  cfg.workflow = Workflow::kLzh;  // v3 archive: widest legal codec range
  auto archive = Compressor(cfg).compress(data, Extents::d1(data.size())).bytes;
  archive[7] = 9;  // past kRans (7), not kAuto
  restamp_crc(archive);
  expect_rejected(archive, DecodeErrorKind::kCorruptStream, "header");
}

TEST(FuzzDecode, LzCodecIdRejectedInLegacyArchiveVersion) {
  // A v2 header can only carry the original four workflow tags; an LZ id or
  // eight-lane rANS spliced into one must be rejected even though v3
  // readers accept them.
  for (const Workflow wf : {Workflow::kLz77, Workflow::kRans}) {
    SCOPED_TRACE("workflow tag " + std::to_string(static_cast<int>(wf)));
    auto archive = spiked_archive();  // kHuffman -> written as v2
    ASSERT_EQ(archive[4], 2);         // version u16 low byte
    archive[7] = static_cast<std::uint8_t>(wf);
    restamp_crc(archive);
    expect_rejected(archive, DecodeErrorKind::kCorruptStream, "header");
  }
}

TEST(FuzzDecode, ArchiveAndContainerHeadersShareOneShapeCheck) {
  // archive::check_shape is the one rank / dtype-tag / extents / overflow
  // check: a spliced shape gets the same error from an archive (rank at
  // byte 6, dtype at 8, nx/ny/nz from 9) and from a slab container (rank at
  // 6, dtype at 7, nx/ny/nz from 8).
  std::vector<float> data(512);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(static_cast<float>(i) * 0.01f);
  }
  StreamingConfig scfg;
  scfg.base.eb = ErrorBound::absolute(1e-3);
  scfg.max_slab_elems = 128;
  const auto container = StreamingCompressor(scfg).compress(data, Extents::d1(512)).bytes;
  const auto archive = spiked_archive();

  struct Shape {
    std::uint8_t rank, dtype;
    std::uint64_t nx, ny, nz;
  };
  const auto splice = [](std::vector<std::uint8_t> bytes, std::size_t dims_at, const Shape& s) {
    bytes[6] = s.rank;
    bytes[dims_at - 1] = s.dtype;
    std::memcpy(bytes.data() + dims_at, &s.nx, 8);
    std::memcpy(bytes.data() + dims_at + 8, &s.ny, 8);
    std::memcpy(bytes.data() + dims_at + 16, &s.nz, 8);
    return bytes;
  };
  const std::uint64_t big = std::uint64_t{1} << 32;
  const Shape shapes[] = {
      {0, 0, 512, 1, 1},      // rank outside [1, 3]
      {1, 7, 512, 1, 1},      // unknown element-type tag
      {1, 0, 256, 2, 1},      // extents inconsistent with the rank
      {3, 0, big, big, big},  // element count overflows
  };
  for (const Shape& s : shapes) {
    auto a = splice(archive, 9, s);
    restamp_crc(a);
    const auto c = splice(container, 8, s);
    std::string from_archive, from_container;
    try {
      (void)Compressor::decompress(a);
    } catch (const DecodeError& e) {
      from_archive = e.what();
    }
    try {
      (void)StreamingCompressor::decompress(c);
    } catch (const DecodeError& e) {
      from_container = e.what();
    }
    EXPECT_NE(from_archive.find("in header: "), std::string::npos) << from_archive;
    EXPECT_EQ(from_container, from_archive);
  }

  // The archive checks its workflow tag before the shared shape checks; a
  // header bad in both still fails as corrupt-stream in header.
  auto both = archive;
  both[6] = 0;
  both[7] = 200;
  restamp_crc(both);
  expect_rejected(both, DecodeErrorKind::kCorruptStream, "header");
}

TEST(FuzzDecode, SplicedOutlierCountOverflowIsNamed) {
  auto archive = spiked_archive();
  // Declare UINT64_MAX/2 outlier indices: must be rejected against the
  // remaining bytes before any allocation happens.
  splice_u64(archive, kOutlierCountOffset, UINT64_MAX / 2);
  restamp_crc(archive);
  expect_rejected(archive, DecodeErrorKind::kLengthOverflow, "outliers");
}

TEST(FuzzDecode, SplicedElementCountNeverSizesTheQuantBuffer) {
  // Each codec sizes the workspace's quant-code buffer only once its own
  // section holds the grid's n symbols, so a header element count spliced
  // to 2^24 is refused without growing the buffer to that count.
  std::vector<float> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(static_cast<float>(i) * 0.01f);
  }
  for (const Workflow wf : {Workflow::kHuffman, Workflow::kRle, Workflow::kRleVle, Workflow::kRans,
                            Workflow::kLz77, Workflow::kLzh, Workflow::kLzr}) {
    CompressConfig cfg;
    cfg.eb = ErrorBound::absolute(1e-3);
    cfg.workflow = wf;
    const auto archive = Compressor(cfg).compress(data, Extents::d1(data.size())).bytes;
    Workspace ws;
    Decompressed out;
    Compressor::decompress(archive, out, ws);
    const std::size_t capacity = ws.product.quant.capacity();
    auto spliced = archive;
    splice_u64(spliced, 9, std::uint64_t{1} << 24);  // nx of the 1-D grid
    restamp_crc(spliced);
    EXPECT_THROW(Compressor::decompress(spliced, out, ws), DecodeError)
        << "workflow " << static_cast<int>(wf);
    EXPECT_EQ(ws.product.quant.capacity(), capacity) << "workflow " << static_cast<int>(wf);
  }
}

TEST(FuzzDecode, OutOfRangeOutlierIndexIsNamed) {
  std::size_t outliers = 0;
  auto archive = spiked_archive(&outliers);
  ASSERT_GE(outliers, 1u);
  // Point the first outlier's scatter write far outside the 4096-element
  // grid; the per-index validation must catch it before the scatter kernel.
  splice_u64(archive, kFirstOutlierOffset, 0xffffffffffull);
  restamp_crc(archive);
  expect_rejected(archive, DecodeErrorKind::kCorruptStream, "outliers");
}

// Compression writes outlier indices strictly increasing; decode rejects a
// stream that is not, since reconstruction finds each row's outliers by
// search and a repeated index would add its residual twice.
/// The spiked archive with its first two outlier indices (a, b) replaced
/// by pick(a, b).
template <typename Pick>
std::vector<std::uint8_t> with_outlier_indices(Pick pick) {
  std::size_t outliers = 0;
  auto archive = spiked_archive(&outliers);
  EXPECT_GE(outliers, 2u);
  std::uint64_t a = 0, b = 0;
  std::memcpy(&a, archive.data() + kFirstOutlierOffset, 8);
  std::memcpy(&b, archive.data() + kFirstOutlierOffset + 8, 8);
  EXPECT_LT(a, b);
  const auto [first, second] = pick(a, b);
  splice_u64(archive, kFirstOutlierOffset, first);
  splice_u64(archive, kFirstOutlierOffset + 8, second);
  restamp_crc(archive);
  return archive;
}

TEST(FuzzDecode, SwappedOutlierIndicesAreNamed) {
  const auto swapped = with_outlier_indices(
      [](std::uint64_t a, std::uint64_t b) { return std::make_pair(b, a); });
  expect_rejected(swapped, DecodeErrorKind::kCorruptStream, "outliers");
}

TEST(FuzzDecode, DuplicatedOutlierIndexIsNamed) {
  const auto duplicated = with_outlier_indices(
      [](std::uint64_t a, std::uint64_t) { return std::make_pair(a, a); });
  expect_rejected(duplicated, DecodeErrorKind::kCorruptStream, "outliers");
}

TEST(FuzzDecode, ChecksumMismatchIsNamed) {
  auto archive = spiked_archive();
  archive[kHeaderBytes + 1] ^= 0x01;  // any body flip without re-stamping
  expect_rejected(archive, DecodeErrorKind::kChecksumMismatch, "archive");
}

TEST(FuzzDecode, CorruptCodebookIsNamed) {
  // alphabet = 0 is structurally invalid.
  ByteWriter w;
  w.put<std::uint32_t>(0);
  w.put<std::uint32_t>(0);
  const auto bytes = w.take();
  ByteReader r(bytes);
  try {
    (void)HuffmanCodebook::deserialize(r);
    FAIL() << "deserialized an empty-alphabet codebook";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kCorruptStream) << e.what();
    EXPECT_EQ(e.segment(), "codebook") << e.what();
    EXPECT_NE(std::string(e.what()).find("codebook"), std::string::npos);
  }
}

TEST(FuzzDecode, TruncatedBitstreamIsNamed) {
  const std::uint8_t one = 0xa5;
  BitReader br(std::span<const std::uint8_t>(&one, 1));
  for (int i = 0; i < 8; ++i) (void)br.get_bit();
  try {
    (void)br.get_bit();
    FAIL() << "read past the end of a 1-byte bitstream";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kTruncated) << e.what();
    EXPECT_EQ(e.segment(), "bitstream") << e.what();
    EXPECT_NE(std::string(e.what()).find("bitstream"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Exception propagation out of the simulated-GPU grid: the first (lowest
// block index) exception is rethrown after the region joins, the remaining
// blocks still run, and the exception type survives intact.
// ---------------------------------------------------------------------------

TEST(LaunchExceptions, LowestFaultingBlockWinsDeterministically) {
  for (int rep = 0; rep < 10; ++rep) {
    try {
      sim::launch_blocks(8, [](std::size_t b) {
        if (b == 2 || b == 5) throw std::runtime_error("block " + std::to_string(b));
      });
      FAIL() << "launch_blocks swallowed the block exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "block 2");
    }
  }
}

TEST(LaunchExceptions, RemainingBlocksStillRun) {
  std::atomic<std::size_t> ran{0};
  try {
    sim::launch_blocks(16, [&ran](std::size_t b) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (b == 3) throw std::runtime_error("fault");
    });
    FAIL() << "exception was not rethrown";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(ran.load(), 16u);  // the grid drains; no block is skipped
}

TEST(LaunchExceptions, DecodeErrorTypeSurvivesTheParallelRegion) {
  try {
    sim::launch_blocks(4, [](std::size_t b) {
      if (b == 1) {
        throw DecodeError(DecodeErrorKind::kCorruptStream, "bitstream", "from block 1");
      }
    });
    FAIL() << "DecodeError did not propagate";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kCorruptStream);
    EXPECT_EQ(e.segment(), "bitstream");
  }
}

TEST(LaunchExceptions, SingleBlockGridPropagatesInline) {
  EXPECT_THROW(sim::launch_blocks(1, [](std::size_t) { throw std::logic_error("inline"); }),
               std::logic_error);
}

TEST(LaunchExceptions, ThreeDSingleBlockRunsInline) {
  std::size_t calls = 0;
  sim::launch_blocks_3d(sim::Dim3{1, 1, 1}, [&](std::uint32_t bx, std::uint32_t by,
                                                std::uint32_t bz) {
    EXPECT_EQ(bx, 0u);
    EXPECT_EQ(by, 0u);
    EXPECT_EQ(bz, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_THROW(sim::launch_blocks_3d(sim::Dim3{1, 1, 1},
                                     [](std::uint32_t, std::uint32_t, std::uint32_t) {
                                       throw std::logic_error("inline 3-D");
                                     }),
               std::logic_error);
}

TEST(LaunchExceptions, ThreeDLowestLinearBlockWins) {
  for (int rep = 0; rep < 10; ++rep) {
    try {
      sim::launch_blocks_3d(sim::Dim3{2, 2, 2},
                            [](std::uint32_t bx, std::uint32_t by, std::uint32_t bz) {
        const std::size_t linear = bx + 2u * by + 4u * bz;
        if (linear == 3 || linear == 6) {
          throw std::runtime_error("linear " + std::to_string(linear));
        }
      });
      FAIL() << "launch_blocks_3d swallowed the block exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "linear 3");
    }
  }
}

TEST(LaunchExceptions, InOrderCapturesInBothBranches) {
  const std::vector<std::size_t> order = {3, 1, 0, 2};
  for (const bool parallel : {false, true}) {
    try {
      sim::launch_blocks_in_order(order, parallel, [](std::size_t b) {
        // Blocks 1 and 2 fault; the lowest *block index* must win even
        // though block 2 appears later in the visiting order.
        if (b == 1 || b == 2) throw std::runtime_error("block " + std::to_string(b));
      });
      FAIL() << "launch_blocks_in_order swallowed the block exceptions (parallel=" << parallel
             << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "block 1") << "parallel=" << parallel;
    }
  }
}

// ---------------------------------------------------------------------------
// Regression corpus: campaign persistence, dedup, and exact replay.
// ---------------------------------------------------------------------------

/// Hand-build a corpus artifact in the on-disk format (magic "SZPF",
/// version, kind, target, segment, archive) so replay's drift detection can
/// be probed without a live campaign.
std::vector<std::uint8_t> make_artifact(DecodeErrorKind kind, const std::string& target,
                                        const std::string& segment,
                                        const std::vector<std::uint8_t>& archive) {
  ByteWriter w;
  w.put<std::uint32_t>(0x46505A53);
  w.put<std::uint8_t>(1);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(kind));
  w.put_span(std::span<const char>(target.data(), target.size()));
  w.put_span(std::span<const char>(segment.data(), segment.size()));
  w.put_vector(archive);
  return w.take();
}

TEST(FuzzCorpus, CampaignWritesDedupesAndReplays) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "szp_fuzz_corpus_test";
  fs::remove_all(dir);

  fuzz::FuzzConfig cfg;
  cfg.rounds = 1;
  cfg.corpus_dir = dir.string();
  std::ostringstream out;
  const auto res = fuzz::run(cfg, out);
  EXPECT_TRUE(res.ok()) << out.str();
  EXPECT_GT(res.corpus_new, 0u);

  // One full artifact per new (kind x segment) pair, plus a "__min.szpf"
  // shrunken companion wherever truncation-based shrinking found a strictly
  // smaller prefix with the same verdict.
  std::size_t files = 0, min_files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".szpf") continue;
    const bool is_min = e.path().stem().string().ends_with("__min");
    files += is_min ? 0 : 1;
    min_files += is_min ? 1 : 0;
  }
  EXPECT_EQ(files, res.corpus_new);
  EXPECT_GT(min_files, 0u);
  EXPECT_LE(min_files, files);

  // Second campaign over the same directory: the writer pre-seeds its
  // seen-set from disk, so every (kind x segment) pair is already covered.
  std::ostringstream out2;
  const auto res2 = fuzz::run(cfg, out2);
  EXPECT_EQ(res2.corpus_new, 0u);

  // Replay reproduces every artifact's verdict exactly.
  std::ostringstream rout;
  const auto rep = fuzz::replay(dir.string(), rout);
  EXPECT_TRUE(rep.ok()) << rout.str();
  EXPECT_EQ(rep.artifacts, res.corpus_new + min_files);
  EXPECT_EQ(rep.matched, rep.artifacts);
  fs::remove_all(dir);
}

TEST(FuzzCorpus, ReplayFailsOnVerdictDrift) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "szp_fuzz_corpus_drift";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto valid = spiked_archive();

  // An artifact claiming a valid archive must be rejected: the decode
  // accepts it, which replay reports as drift.
  io::write_file(dir / "accepts.szpf",
                 make_artifact(DecodeErrorKind::kTruncated, "szp/huffman-1d-f32", "header",
                               valid));
  // A truncated archive does throw (checksum-mismatch: the whole-archive
  // CRC is verified first), but the artifact recorded a different kind:
  // also drift.
  auto cut = valid;
  cut.resize(20);
  io::write_file(dir / "wrong-kind.szpf",
                 make_artifact(DecodeErrorKind::kBadVersion, "szp/huffman-1d-f32", "archive",
                               cut));
  // An unknown target name cannot be replayed at all.
  io::write_file(dir / "unknown.szpf",
                 make_artifact(DecodeErrorKind::kTruncated, "mystery/format", "header", cut));
  // A corrupt artifact file itself.
  io::write_file(dir / "garbage.szpf", std::vector<std::uint8_t>{1, 2, 3});

  std::ostringstream out;
  const auto rep = fuzz::replay(dir.string(), out);
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.artifacts, 4u);
  EXPECT_EQ(rep.matched, 0u);
  EXPECT_EQ(rep.failures.size(), 4u) << out.str();
  fs::remove_all(dir);
}

TEST(FuzzCorpus, CommittedCorpusReplaysAndCoversEveryKind) {
  // The corpus committed under tests/corpus/ is the regression contract:
  // every artifact must reproduce its recorded verdict on today's decoders,
  // and at least one artifact exists per DecodeError kind.
  const std::string dir = SZP_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::ostringstream out;
  const auto rep = fuzz::replay(dir, out);
  EXPECT_TRUE(rep.ok()) << out.str();
  EXPECT_GE(rep.artifacts, 6u);
  EXPECT_EQ(rep.matched, rep.artifacts);
  for (const char* kind : {"truncated", "bad-magic", "bad-version", "length-overflow",
                           "checksum-mismatch", "corrupt-stream"}) {
    bool found = false;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      if (e.path().filename().string().rfind(kind, 0) == 0) found = true;
    }
    EXPECT_TRUE(found) << "no committed artifact for kind " << kind;
  }
}

TEST(FuzzCorpus, CliReplayRunsTheCommittedCorpus) {
  std::ostringstream out, err;
  const int rc = cli::run({"fuzz", "--replay", SZP_CORPUS_DIR}, out, err);
  EXPECT_EQ(rc, 0) << err.str() << out.str();
  EXPECT_NE(out.str().find("replay:"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("0 failure(s)"), std::string::npos) << out.str();
}

TEST(LaunchExceptions, HuffmanDecodePropagatesFromTheGrid) {
  // A production kernel, not a synthetic body: 8 chunks decode in parallel,
  // and a spliced gap offset sends one sub-block's BitReader past the end of
  // its chunk.  The DecodeError must surface at the launch's join.
  std::vector<quant_t> symbols(8192);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    symbols[i] = static_cast<quant_t>((i * 7 + i / 13) % 16);
  }
  std::vector<std::uint64_t> freq(16, 0);
  for (const auto s : symbols) ++freq[s];
  const auto book = HuffmanCodebook::build(freq);
  auto enc = huffman_encode(symbols, book, 1024, HuffmanEncVariant::kOptimized, 256);
  ASSERT_GT(enc.chunk_offsets.size(), 2u);  // really multi-chunk
  ASSERT_FALSE(enc.gaps.empty());
  enc.gaps.back() = 1u << 30;  // bit offset far past any chunk
  try {
    (void)huffman_decode(enc, book);
    FAIL() << "decode accepted a spliced gap offset";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kTruncated) << e.what();
    EXPECT_EQ(e.segment(), "bitstream") << e.what();
  }
}

}  // namespace
