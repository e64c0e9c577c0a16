#include "tools/fuzz_decode.hh"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <optional>
#include <set>
#include <span>
#include <typeinfo>
#include <utility>
#include <vector>

#include "baseline/cusz_ref.hh"
#include "core/bundle.hh"
#include "core/checksum.hh"
#include "core/compressor.hh"
#include "core/io/io.hh"
#include "core/serialize.hh"
#include "core/streaming.hh"
#include "lossless/lzh.hh"
#include "lossless/lzr.hh"
#include "zfp/zfp.hh"

namespace szp::fuzz {

namespace {

/// splitmix64 — tiny, seedable, and good enough to scatter mutations.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

/// One archive under test and whether its format carries a whole-archive
/// CRC (which makes silent acceptance of a mutation a bug).  Its name picks
/// the decoder (decoder_for), so the campaign and replay decode a target the
/// same way.
struct Target {
  std::string name;
  std::vector<std::uint8_t> archive;
  bool whole_crc = false;  ///< trailing CRC-32 over everything before it
};

std::vector<float> wave_f32(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    v[i] = static_cast<float>(std::sin(x * 0.05) + 0.3 * std::cos(x * 0.017));
  }
  return v;
}

std::vector<double> wave_f64(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    v[i] = std::sin(x * 0.05) + 0.3 * std::cos(x * 0.017);
  }
  return v;
}

std::vector<std::uint8_t> sample_text(std::size_t n) {
  const std::string phrase = "error-bounded lossy compression of scientific data ";
  std::vector<std::uint8_t> v;
  v.reserve(n);
  while (v.size() < n) {
    const std::size_t take = std::min(phrase.size(), n - v.size());
    v.insert(v.end(), phrase.begin(), phrase.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return v;
}

/// Decode through the file-based out-of-core path: the mutant round-trips
/// through disk so FileFieldSource ingest (positional reads, no mmap view),
/// the streaming slab-directory walk, and FileSink emission all face the
/// corrupted bytes — the same route `szp -d --memory-budget` takes.
void decode_via_file(std::span<const std::uint8_t> bytes) {
  namespace fs = std::filesystem;
  // Scratch is keyed by PID: campaigns run concurrently under parallel
  // ctest, and a shared mutant path lets one process truncate the file
  // underneath another's read — a leaked runtime_error the contract
  // (DecodeError-only) then flags as a spurious violation.
  const fs::path dir = fs::temp_directory_path() /
                       ("szp_fuzz_oocore." + std::to_string(::getpid()));
  fs::create_directories(dir);
  // Removed on return and on throw; the error_code form never throws into
  // the judge, which must see only the decoder's verdict.
  struct RemoveOnExit {
    const fs::path& dir;
    ~RemoveOnExit() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } remove_on_exit{dir};
  io::write_file(dir / "mutant.szpc", bytes);
  StreamingConfig cfg;
  cfg.use_mmap = false;
  (void)StreamingCompressor::decompress_file(dir / "mutant.szpc", dir / "mutant.raw", cfg);
}

Target szp_target(const std::string& name, Workflow wf, PredictorKind pred,
                  const Extents& ext, bool f64, std::uint32_t huffman_gap_stride = 0) {
  CompressConfig cfg;
  cfg.eb = ErrorBound::absolute(1e-3);
  cfg.workflow = wf;
  cfg.predictor = pred;
  cfg.huffman_gap_stride = huffman_gap_stride;
  Target t;
  t.name = name;
  t.archive = f64 ? Compressor(cfg).compress(wave_f64(ext.count()), ext).bytes
                  : Compressor(cfg).compress(wave_f32(ext.count()), ext).bytes;
  t.whole_crc = true;
  return t;
}

std::vector<Target> make_targets() {
  std::vector<Target> targets;

  targets.push_back(szp_target("szp/huffman-1d-f32", Workflow::kHuffman,
                               PredictorKind::kLorenzo, Extents::d1(2048), false));
  targets.push_back(szp_target("szp/rle-1d-f32", Workflow::kRle, PredictorKind::kLorenzo,
                               Extents::d1(2048), false));
  targets.push_back(szp_target("szp/rle+vle-2d-f32", Workflow::kRleVle,
                               PredictorKind::kLorenzo, Extents::d2(48, 40), false));
  targets.push_back(szp_target("szp/rans-1d-f32", Workflow::kRans, PredictorKind::kLorenzo,
                               Extents::d1(2048), false));
  // The LZ quant-code codecs write archive format v3; fuzzing them covers
  // the token-stream validation paths the v2 codecs never reach.
  targets.push_back(szp_target("szp/lz77-1d-f32", Workflow::kLz77, PredictorKind::kLorenzo,
                               Extents::d1(2048), false));
  targets.push_back(szp_target("szp/lzh-2d-f32", Workflow::kLzh, PredictorKind::kLorenzo,
                               Extents::d2(48, 40), false));
  targets.push_back(szp_target("szp/lzr-1d-f32", Workflow::kLzr, PredictorKind::kLorenzo,
                               Extents::d1(2048), false));
  targets.push_back(szp_target("szp/huffman-3d-f32", Workflow::kHuffman,
                               PredictorKind::kLorenzo, Extents::d3(12, 10, 8), false));
  targets.push_back(szp_target("szp/huffman-2d-f64", Workflow::kHuffman,
                               PredictorKind::kLorenzo, Extents::d2(40, 32), true));
  targets.push_back(szp_target("szp/regression-2d-f32", Workflow::kHuffman,
                               PredictorKind::kRegression, Extents::d2(48, 40), false));
  targets.push_back(szp_target("szp/interp-1d-f32", Workflow::kHuffman,
                               PredictorKind::kInterpolation, Extents::d1(2048), false));

  {
    Target t;
    t.name = "streaming/huffman-1d-f32";
    StreamingConfig scfg;
    scfg.base.eb = ErrorBound::absolute(1e-3);
    scfg.base.workflow = Workflow::kHuffman;
    scfg.max_slab_elems = 512;
    const Extents ext = Extents::d1(2048);
    t.archive = StreamingCompressor(scfg).compress(wave_f32(ext.count()), ext).bytes;
    // The container itself has no trailing CRC; its nested slabs do.
    targets.push_back(std::move(t));
  }

  {
    Target t;
    t.name = "streaming-file/huffman-1d-f32";
    StreamingConfig scfg;
    scfg.base.eb = ErrorBound::absolute(1e-3);
    scfg.base.workflow = Workflow::kHuffman;
    scfg.max_slab_elems = 512;
    const Extents ext = Extents::d1(2048);
    t.archive = StreamingCompressor(scfg).compress(wave_f32(ext.count()), ext).bytes;
    targets.push_back(std::move(t));
  }

  {
    Target t;
    t.name = "bundle/two-fields";
    CompressConfig cfg;
    cfg.eb = ErrorBound::absolute(1e-3);
    const Extents ext = Extents::d1(512);
    Bundle b;
    b.add("alpha", Compressor(cfg).compress(wave_f32(ext.count()), ext).bytes);
    b.add("beta", Compressor(cfg).compress(wave_f64(ext.count()), ext).bytes);
    t.archive = b.serialize();
    t.whole_crc = true;
    targets.push_back(std::move(t));
  }

  {
    Target t;
    t.name = "baseline/cusz-2d-f32";
    const Extents ext = Extents::d2(48, 40);
    t.archive = baseline::CuszCompressor().compress(wave_f32(ext.count()), ext).bytes;
    targets.push_back(std::move(t));
  }

  {
    Target t;
    t.name = "lossless/lzh";
    t.archive = lossless::lzh_compress(sample_text(4096), {});
    targets.push_back(std::move(t));
  }

  {
    Target t;
    t.name = "lossless/lzr";
    t.archive = lossless::lzr_compress(sample_text(4096), {});
    targets.push_back(std::move(t));
  }

  {
    Target t;
    t.name = "zfp/2d-f32";
    const Extents ext = Extents::d2(40, 32);
    t.archive = zfp::zfp_compress(wave_f32(ext.count()), ext, {}).bytes;
    targets.push_back(std::move(t));
  }

  {
    // Tag 3 (one-lane rANS) has no encoder, so this target is seeded from a
    // kept fixture, tests/golden/lorenzo__rans__f32.szp, whose bytes the
    // build compiles in.  Appended last, so the other targets keep their
    // mutation streams.
    static constexpr std::uint8_t kOneLaneFixture[] = {
#include "one_lane_fixture.inc"
    };
    Target t;
    t.name = "szp/rans-one-lane-2d-f32";
    t.archive.assign(std::begin(kOneLaneFixture), std::end(kOneLaneFixture));
    t.whole_crc = true;
    targets.push_back(std::move(t));
  }

  // Every target above holds at most one 4096-symbol Huffman chunk.  These
  // hold six, so the first four form a full group of the inflate kernel
  // and mutations reach its unchecked window loads, in chunks and in
  // gap-array sub-blocks.
  const Extents groups = Extents::d1(5 * 4096 + 1000);
  targets.push_back(szp_target("szp/huffman-groups-1d-f32", Workflow::kHuffman,
                               PredictorKind::kLorenzo, groups, false));
  targets.push_back(szp_target("szp/huffman-groups-gap256-1d-f32", Workflow::kHuffman,
                               PredictorKind::kLorenzo, groups, false, 256));

  return targets;
}

/// Re-stamp the trailing CRC-32 so a mutation survives the whole-archive
/// checksum and exercises the structural validation behind it.
void fix_trailing_crc(std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 4) return;
  const std::uint32_t crc =
      crc32(std::span<const std::uint8_t>(bytes.data(), bytes.size() - 4));
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
}

// ---------------------------------------------------------------------------
// Regression corpus.  Each artifact is one mutated archive plus the verdict
// it produced, serialized self-describing so replay needs no manifest and no
// archive regeneration:
//
//   u32 magic "SZPF" | u8 version | u8 kind | str target | str segment |
//   vec<u8> mutated archive
//
// where str/vec use the ByteWriter length-prefixed encoding.  The dedup key
// is (DecodeError kind × segment): the corpus keeps the first mutant that
// reached each distinct rejection site, which is exactly the granularity the
// decode contract is specified at.

constexpr std::uint32_t kCorpusMagic = 0x46505A53;  // "SZPF"
constexpr std::uint8_t kCorpusVersion = 1;

void put_str(ByteWriter& w, const std::string& s) {
  w.put_span(std::span<const char>(s.data(), s.size()));
}
std::string get_str(ByteReader& r) {
  const auto v = r.get_vector<char>();
  return {v.begin(), v.end()};
}

/// Parsed artifact (see the layout note above).
struct CorpusEntry {
  DecodeErrorKind kind = DecodeErrorKind::kCorruptStream;
  std::string target;
  std::string segment;
  std::vector<std::uint8_t> archive;
};

std::vector<std::uint8_t> serialize_entry(const CorpusEntry& e) {
  ByteWriter w;
  w.put(kCorpusMagic);
  w.put(kCorpusVersion);
  w.put(static_cast<std::uint8_t>(e.kind));
  put_str(w, e.target);
  put_str(w, e.segment);
  w.put_vector(e.archive);
  return w.take();
}

CorpusEntry parse_entry(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  r.set_segment("corpus artifact");
  if (r.get<std::uint32_t>() != kCorpusMagic) {
    throw DecodeError(DecodeErrorKind::kBadMagic, "corpus artifact", "not an SZPF artifact");
  }
  if (r.get<std::uint8_t>() != kCorpusVersion) {
    throw DecodeError(DecodeErrorKind::kBadVersion, "corpus artifact",
                      "unsupported artifact version");
  }
  CorpusEntry e;
  const auto kind = r.get<std::uint8_t>();
  if (kind > static_cast<std::uint8_t>(DecodeErrorKind::kCorruptStream)) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "corpus artifact",
                      "unknown DecodeError kind " + std::to_string(kind));
  }
  e.kind = static_cast<DecodeErrorKind>(kind);
  e.target = get_str(r);
  e.segment = get_str(r);
  e.archive = r.get_vector<std::uint8_t>();
  return e;
}

using Decoder = std::function<void(std::span<const std::uint8_t>)>;

/// Stateless decoder dispatch by target-name prefix, shared by the live
/// campaign and replay, so an artifact replays through the decoder that
/// captured it.
Decoder decoder_for(const std::string& name) {
  if (name.rfind("szp/", 0) == 0) {
    return [](std::span<const std::uint8_t> b) { (void)Compressor::decompress(b); };
  }
  if (name.rfind("streaming-file/", 0) == 0) {
    return [](std::span<const std::uint8_t> b) { decode_via_file(b); };
  }
  if (name.rfind("streaming/", 0) == 0) {
    return [](std::span<const std::uint8_t> b) { (void)StreamingCompressor::decompress(b); };
  }
  if (name.rfind("bundle/", 0) == 0) {
    return [](std::span<const std::uint8_t> b) { (void)Bundle::deserialize(b); };
  }
  if (name.rfind("baseline/", 0) == 0) {
    return [](std::span<const std::uint8_t> b) { (void)baseline::CuszCompressor::decompress(b); };
  }
  if (name == "lossless/lzh") {
    return [](std::span<const std::uint8_t> b) { (void)lossless::lzh_decompress(b); };
  }
  if (name == "lossless/lzr") {
    return [](std::span<const std::uint8_t> b) { (void)lossless::lzr_decompress(b); };
  }
  if (name.rfind("zfp/", 0) == 0) {
    return [](std::span<const std::uint8_t> b) { (void)zfp::zfp_decompress(b); };
  }
  return nullptr;
}

std::string sanitize_for_filename(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(keep ? c : '-');
  }
  return out;
}

/// Shrink a reproducer by greedy tail truncation: repeatedly drop the longest
/// suffix that preserves the (kind × segment) verdict, halving the step until
/// single bytes.  Tail cuts keep the artifact a *prefix* of the original
/// mutant, so the shrunken archive still exercises the same parse path up to
/// the rejection point.
std::vector<std::uint8_t> shrink_reproducer(const CorpusEntry& e, const Decoder& decode) {
  const auto verdict_holds = [&](std::span<const std::uint8_t> bytes) {
    try {
      decode(bytes);
      return false;
    } catch (const DecodeError& err) {
      return err.kind() == e.kind && err.segment() == e.segment;
    } catch (...) {
      return false;  // a leaked exception is a different bug, not this verdict
    }
  };
  std::vector<std::uint8_t> best = e.archive;
  for (std::size_t step = std::max<std::size_t>(1, best.size() / 2); step >= 1; step /= 2) {
    while (best.size() > step &&
           verdict_holds(std::span<const std::uint8_t>(best.data(), best.size() - step))) {
      best.resize(best.size() - step);
    }
  }
  if (!best.empty() && verdict_holds(std::span<const std::uint8_t>())) best.clear();
  return best;
}

/// Persists artifacts per novel (kind × segment) pair: the first mutant that
/// reached the rejection site, plus — when tail truncation can shrink it —
/// the smallest prefix reproducer as `<kind>__<segment>__min.szpf`.
/// Pre-seeds the seen-set from whatever is already committed under `dir`, so
/// repeated campaigns (and CI re-runs) only ever add genuinely new rejection
/// sites.
class CorpusWriter {
 public:
  explicit CorpusWriter(std::string dir) : dir_(std::move(dir)) {
    std::filesystem::create_directories(dir_);
    for (const auto& ent : std::filesystem::directory_iterator(dir_)) {
      if (ent.path().extension() != ".szpf") continue;
      try {
        const CorpusEntry e = parse_entry(io::read_file(ent.path()));
        seen_.emplace(e.kind, e.segment);
      } catch (const DecodeError&) {
        // Unreadable artifacts are replay's problem to report, not ours.
      }
    }
  }

  /// Returns true when the finding was new and an artifact was written.
  bool offer(const std::string& target, const DecodeError& err,
             std::span<const std::uint8_t> mutated) {
    if (!seen_.emplace(err.kind(), err.segment()).second) return false;
    CorpusEntry e;
    e.kind = err.kind();
    e.target = target;
    e.segment = err.segment();
    e.archive.assign(mutated.begin(), mutated.end());
    const std::string stem = std::string(decode_error_kind_name(e.kind)) + "__" +
                             sanitize_for_filename(e.segment);
    io::write_file(std::filesystem::path(dir_) / (stem + ".szpf"), serialize_entry(e));

    // The min artifact replays through the same decoder as the original, so
    // it must carry an identical verdict — shrink_reproducer guarantees that.
    if (const auto decode = decoder_for(e.target)) {
      CorpusEntry m = e;
      m.archive = shrink_reproducer(e, decode);
      if (m.archive.size() < e.archive.size()) {
        io::write_file(std::filesystem::path(dir_) / (stem + "__min.szpf"),
                       serialize_entry(m));
      }
    }
    return true;
  }

 private:
  std::string dir_;
  std::set<std::pair<DecodeErrorKind, std::string>> seen_;
};

/// One campaign step: decode `mutated` and judge the outcome against the
/// contract in the header comment.
struct Judge {
  const FuzzConfig& cfg;
  FuzzResult& res;
  std::ostream& out;
  CorpusWriter* corpus = nullptr;
  Decoder decode;  ///< decoder_for(the target's name)

  void operator()(const Target& t, const std::string& mutation,
                  std::vector<std::uint8_t> mutated, bool crc_fixed) {
    ++res.mutations;
    const bool changed = mutated != t.archive;
    try {
      decode(mutated);
      ++res.accepted;
      if (t.whole_crc && changed && !crc_fixed) {
        res.failures.push_back(t.name + " [" + mutation +
                               "]: CRC-protected archive silently accepted a mutation");
      } else if (cfg.verbose) {
        out << "  " << t.name << " [" << mutation << "]: accepted\n";
      }
    } catch (const DecodeError& e) {
      ++res.clean_errors;
      ++res.kinds[e.kind()];
      if (corpus != nullptr && corpus->offer(t.name, e, mutated)) {
        ++res.corpus_new;
        if (cfg.verbose) {
          out << "  " << t.name << " [" << mutation << "]: new corpus artifact ("
              << decode_error_kind_name(e.kind()) << " in " << e.segment() << ")\n";
        }
      }
      if (cfg.verbose) {
        out << "  " << t.name << " [" << mutation << "]: " << e.what() << "\n";
      }
    } catch (const std::exception& e) {
      res.failures.push_back(t.name + " [" + mutation + "]: leaked " +
                             std::string(typeid(e).name()) + ": " + e.what());
    } catch (...) {
      res.failures.push_back(t.name + " [" + mutation + "]: leaked a non-std exception");
    }
  }
};

void fuzz_target(const Target& t, const FuzzConfig& cfg, Judge& judge, Rng& rng) {
  const std::vector<std::uint8_t>& a = t.archive;
  const std::size_t n = a.size();

  // -- Truncations: tiny prefixes, 8-byte boundaries through the header
  //    region, coarse fractions, and off-by-a-few at the tail.
  std::vector<std::size_t> cuts;
  for (std::size_t k = 0; k <= 8 && k < n; ++k) cuts.push_back(k);
  for (std::size_t k = 16; k <= 64 && k < n; k += 8) cuts.push_back(k);
  for (const std::size_t num : {1, 2, 3}) cuts.push_back(num * n / 4);
  for (std::size_t k = 1; k <= 8 && k < n; ++k) cuts.push_back(n - k);
  for (const std::size_t cut : cuts) {
    judge(t, "truncate@" + std::to_string(cut),
          std::vector<std::uint8_t>(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(cut)),
          false);
  }

  // -- Zeroed header: wipes magic/version/extents in one stroke.
  {
    auto m = a;
    std::fill(m.begin(), m.begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(16, n)),
              std::uint8_t{0});
    judge(t, "zero-header", std::move(m), false);
  }

  for (int round = 0; round < cfg.rounds; ++round) {
    // -- Single-bit flips scattered over the whole archive.
    for (int i = 0; i < 48; ++i) {
      auto m = a;
      const std::size_t byte = rng.below(n);
      m[byte] = static_cast<std::uint8_t>(m[byte] ^ (1u << rng.below(8)));
      judge(t, "bitflip@" + std::to_string(byte), std::move(m), false);
    }

    // -- Length-field splices: overwrite an aligned u64 with a value chosen
    //    to overflow a size computation or an allocation.
    constexpr std::uint64_t kSplices[] = {
        0xffffffffffffffffull, 0x7fffffffffffffffull, 0x8000000000000000ull,
        0xffffffffull, 0xffffffffffffffffull / 2, 0ull};
    for (int i = 0; i < 12 && n >= 8; ++i) {
      auto m = a;
      const std::size_t at = rng.below(n / 8) * 8;
      const std::uint64_t v = kSplices[rng.below(std::size(kSplices))];
      std::memcpy(m.data() + at, &v, std::min<std::size_t>(8, n - at));
      judge(t, "splice-u64@" + std::to_string(at), std::move(m), false);
    }

    // -- CRC-protected formats: re-stamp the trailer so mutations reach the
    //    structural validators behind the checksum.  Success is then allowed
    //    (the bytes may decode to different data); crashes are not.
    if (t.whole_crc) {
      for (int i = 0; i < 24; ++i) {
        auto m = a;
        if (i % 2 == 0) {
          const std::size_t byte = rng.below(n > 4 ? n - 4 : n);
          m[byte] = static_cast<std::uint8_t>(m[byte] ^ (1u << rng.below(8)));
        } else if (n >= 16) {
          const std::size_t at = rng.below((n - 8) / 8) * 8;
          const std::uint64_t v = kSplices[rng.below(std::size(kSplices))];
          std::memcpy(m.data() + at, &v, 8);
        }
        fix_trailing_crc(m);
        judge(t, "crc-fixed mutation #" + std::to_string(i), std::move(m), true);
      }
    }
  }
}

}  // namespace

FuzzResult run(const FuzzConfig& cfg, std::ostream& out) {
  FuzzResult res;
  const auto targets = make_targets();
  std::optional<CorpusWriter> corpus;
  if (!cfg.corpus_dir.empty()) corpus.emplace(cfg.corpus_dir);
  for (std::size_t ti = 0; ti < targets.size(); ++ti) {
    const Target& t = targets[ti];
    // Per-target RNG stream: adding a target never reshuffles the others.
    Rng rng{cfg.seed ^ (0x100000001b3ull * (ti + 1))};
    Judge judge{cfg, res, out, corpus ? &*corpus : nullptr, decoder_for(t.name)};
    if (cfg.verbose) out << t.name << " (" << t.archive.size() << " bytes)\n";
    fuzz_target(t, cfg, judge, rng);
  }
  out << "fuzz: " << res.mutations << " mutated decodes over " << targets.size()
      << " targets: " << res.clean_errors << " clean rejections, " << res.accepted
      << " accepted, " << res.failures.size() << " contract violations\n";
  if (corpus) {
    out << "corpus: " << res.corpus_new << " new artifact(s) written to " << cfg.corpus_dir
        << "\n";
  }
  for (const auto& f : res.failures) out << "  FAILURE: " << f << "\n";
  return res;
}

ReplayResult replay(const std::string& dir, std::ostream& out) {
  ReplayResult res;
  std::vector<std::filesystem::path> files;
  if (std::filesystem::is_directory(dir)) {
    for (const auto& ent : std::filesystem::directory_iterator(dir)) {
      if (ent.path().extension() == ".szpf") files.push_back(ent.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    ++res.artifacts;
    CorpusEntry e;
    try {
      e = parse_entry(io::read_file(path));
    } catch (const std::exception& ex) {
      res.failures.push_back(path.filename().string() + ": unreadable artifact: " + ex.what());
      continue;
    }
    const auto decode = decoder_for(e.target);
    if (!decode) {
      res.failures.push_back(path.filename().string() + ": unknown target '" + e.target + "'");
      continue;
    }
    const std::string want = std::string(decode_error_kind_name(e.kind)) + " in " + e.segment;
    try {
      decode(e.archive);
      res.failures.push_back(path.filename().string() + ": expected " + want +
                             ", decode accepted the archive");
    } catch (const DecodeError& err) {
      if (err.kind() == e.kind && err.segment() == e.segment) {
        ++res.matched;
        out << "  " << path.filename().string() << ": reproduced (" << want << ")\n";
      } else {
        res.failures.push_back(path.filename().string() + ": verdict drift: expected " + want +
                               ", got " + decode_error_kind_name(err.kind()) + " in " +
                               err.segment());
      }
    } catch (const std::exception& ex) {
      res.failures.push_back(path.filename().string() + ": expected " + want + ", leaked " +
                             std::string(typeid(ex).name()) + ": " + ex.what());
    }
  }
  out << "replay: " << res.matched << "/" << res.artifacts << " artifact(s) reproduced from "
      << dir << ", " << res.failures.size() << " failure(s)\n";
  for (const auto& f : res.failures) out << "  FAILURE: " << f << "\n";
  return res;
}

}  // namespace szp::fuzz
