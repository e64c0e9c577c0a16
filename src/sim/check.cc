// szp::sim::checked — analysis engines for checked-launch mode.
//
// Tier 1: the per-block footprints recorded by the tracking views are swept
// for cross-block overlaps (the races launch.hh's block-independence
// contract forbids) and out-of-bounds accesses.  The sweep is a single
// sorted pass per buffer: O(I log I) in the number of coalesced intervals,
// independent of the pairwise block count, so checking large grids stays
// tractable.
//
// Tier 2 (WordShadow): racecheck-style per-word access records.  Blocks run
// serially in word mode, so each record() sees every earlier access and can
// classify hazards inline: same word + different blocks is a cross-block
// race at word granularity; same word + same block + two *modeled* lanes in
// the same barrier epoch is an intra-block hazard (unless both sides are
// atomic).  Accesses not attributed to a lane (kBlockLane) represent "the
// block as a whole" and are exempt from intra-block classification — a
// kernel gets intra-block checking exactly where it models its cooperating
// threads via this_thread()/barrier().
//
// Schedule fuzzing support (make_fuzz_order, checksums) also lives here; the
// replay loop itself is a template in check.hh.
#include "sim/check.hh"

#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <random>
#include <sstream>
#include <string_view>

namespace szp::sim::checked {

namespace {

// -1: not yet latched from the environment; else a Mode value.
std::atomic<int> g_mode{-1};
// -1: not yet latched from the environment; else a schedule count >= 0.
std::atomic<int> g_fuzz{-1};
// -1: not yet latched from the environment; else a sampling divisor >= 1.
std::atomic<int> g_sample{-1};

CheckReport& mutable_report() {
  static CheckReport report;
  return report;
}

// Launches may complete concurrently (parallel slab streaming runs whole
// compression pipelines from sibling OpenMP workers), so every mutation of
// the process-global report serializes here.  Recording inside a launch
// stays lock-free: block logs and word shadows are per-launch state.
std::mutex& report_mutex() {
  static std::mutex m;
  return m;
}

Mode env_default_mode() {
  const char* v = std::getenv("SZP_SIM_CHECK");
  if (v == nullptr || v[0] == '\0' || std::string_view(v) == "0") return Mode::kOff;
  return std::string_view(v) == "word" ? Mode::kWord : Mode::kInterval;
}

int env_default_fuzz() {
  const char* v = std::getenv("SZP_SIM_FUZZ_SCHEDULE");
  if (v == nullptr || v[0] == '\0') return 0;
  const long n = std::strtol(v, nullptr, 10);
  return n > 0 ? static_cast<int>(n) : 0;
}

int env_default_sample() {
  const char* v = std::getenv("SZP_SIM_CHECK_SAMPLE");
  if (v == nullptr || v[0] == '\0') return 1;
  const long n = std::strtol(v, nullptr, 10);
  return n > 1 ? static_cast<int>(n) : 1;
}

/// One block's interval plus ownership, flattened for the sweep.
struct Event {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::size_t block = 0;
  bool write = false;
};

/// The two furthest-reaching intervals seen so far, guaranteed to belong to
/// distinct blocks.  Keeping two is what makes the sweep complete for
/// pairwise overlap detection: if the furthest interval belongs to the same
/// block as the incoming event, the runner-up (different block by
/// construction) still witnesses any overlap.
struct Frontier {
  std::uint64_t end[2] = {0, 0};
  std::size_t block[2] = {static_cast<std::size_t>(-1), static_cast<std::size_t>(-1)};

  void update(const Event& e) {
    if (e.block == block[0]) {
      end[0] = std::max(end[0], e.hi);
    } else if (e.hi > end[0]) {
      if (block[0] != static_cast<std::size_t>(-1) && end[0] > end[1]) {
        end[1] = end[0];
        block[1] = block[0];
      }
      end[0] = e.hi;
      block[0] = e.block;
    } else if (e.block == block[1]) {
      end[1] = std::max(end[1], e.hi);
    } else if (e.hi > end[1]) {
      end[1] = e.hi;
      block[1] = e.block;
    }
  }

  /// If any tracked interval from a block other than e.block overlaps e,
  /// return the witness (other block, overlap end); else false.
  bool overlap(const Event& e, std::size_t* other, std::uint64_t* end_out) const {
    for (int k = 0; k < 2; ++k) {
      if (block[k] == static_cast<std::size_t>(-1) || block[k] == e.block) continue;
      if (end[k] > e.lo) {
        *other = block[k];
        *end_out = std::min(end[k], e.hi);
        return true;
      }
    }
    return false;
  }
};

constexpr std::size_t kMaxRacesPerLaunch = 32;
constexpr std::size_t kMaxHazardsPerLaunch = 32;
constexpr std::size_t kMaxOobPerLaunch = 32;

}  // namespace

Mode mode() {
  int s = g_mode.load(std::memory_order_relaxed);
  if (s < 0) {
    s = static_cast<int>(env_default_mode());
    g_mode.store(s, std::memory_order_relaxed);
  }
  return static_cast<Mode>(s);
}

void set_mode(Mode m) { g_mode.store(static_cast<int>(m), std::memory_order_relaxed); }

bool enabled() { return mode() != Mode::kOff; }

int fuzz_schedules() {
  int n = g_fuzz.load(std::memory_order_relaxed);
  if (n < 0) {
    n = env_default_fuzz();
    g_fuzz.store(n, std::memory_order_relaxed);
  }
  return n;
}

void set_fuzz_schedules(int n) { g_fuzz.store(n < 0 ? 0 : n, std::memory_order_relaxed); }

int word_sample() {
  int n = g_sample.load(std::memory_order_relaxed);
  if (n < 0) {
    n = env_default_sample();
    g_sample.store(n, std::memory_order_relaxed);
  }
  return n;
}

void set_word_sample(int n) { g_sample.store(n < 1 ? 1 : n, std::memory_order_relaxed); }

const CheckReport& current_report() { return mutable_report(); }

void reset() {
  const std::lock_guard<std::mutex> lock(report_mutex());
  CheckReport& r = mutable_report();
  r.races.clear();
  r.hazards.clear();
  r.oob.clear();
  r.contract_mismatches.clear();
  r.traffic_mismatches.clear();
  r.schedule_diffs.clear();
  r.launches_checked = 0;
  r.launches_fuzzed = 0;
  r.shadow_pages = 0;
  r.shadow_words = 0;
}

void analyze_launch(const char* kernel, const std::vector<BufMeta>& bufs,
                    const std::vector<BlockLog>& logs) {
  const std::lock_guard<std::mutex> lock(report_mutex());
  CheckReport& report = mutable_report();
  ++report.launches_checked;

  // Out-of-bounds hits are already attributed; just copy them out.
  std::size_t oob_reported = 0;
  for (std::size_t b = 0; b < logs.size() && oob_reported < kMaxOobPerLaunch; ++b) {
    for (const OobHit& hit : logs[b].oob) {
      if (oob_reported++ >= kMaxOobPerLaunch) break;
      const BufMeta& m = bufs[hit.buf];
      report.oob.push_back({kernel, m.name, b, hit.index, m.elems, hit.write});
    }
  }

  // Per-buffer sweep for cross-block overlaps.
  std::vector<std::vector<Event>> events(bufs.size());
  for (std::size_t b = 0; b < logs.size(); ++b) {
    for (const TaggedInterval& t : logs[b].acc) {
      events[t.buf].push_back({t.lo, t.hi, b, t.write});
    }
  }

  std::size_t races_reported = 0;
  for (std::size_t buf = 0; buf < bufs.size(); ++buf) {
    auto& ev = events[buf];
    if (ev.size() < 2) continue;
    std::sort(ev.begin(), ev.end(), [](const Event& a, const Event& b) {
      return a.lo != b.lo ? a.lo < b.lo : a.block < b.block;
    });
    Frontier writes, reads;
    // One finding per unordered block pair per buffer keeps reports readable.
    std::vector<std::pair<std::size_t, std::size_t>> seen_pairs;
    const auto fresh = [&](std::size_t a, std::size_t b) {
      const auto p = std::minmax(a, b);
      const std::pair<std::size_t, std::size_t> key{p.first, p.second};
      if (std::find(seen_pairs.begin(), seen_pairs.end(), key) != seen_pairs.end()) return false;
      seen_pairs.push_back(key);
      return true;
    };
    for (const Event& e : ev) {
      std::size_t other = 0;
      std::uint64_t end = 0;
      if (races_reported < kMaxRacesPerLaunch && writes.overlap(e, &other, &end) &&
          fresh(e.block, other)) {
        ++races_reported;
        report.races.push_back({kernel, bufs[buf].name, other, e.block, e.lo, end,
                                bufs[buf].elem_bytes, e.write});
      }
      if (e.write && races_reported < kMaxRacesPerLaunch && reads.overlap(e, &other, &end) &&
          fresh(e.block, other)) {
        ++races_reported;
        report.races.push_back({kernel, bufs[buf].name, other, e.block, e.lo, end,
                                bufs[buf].elem_bytes, false});
      }
      if (e.write) {
        writes.update(e);
      } else {
        reads.update(e);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// WordShadow (tier 2).
// ---------------------------------------------------------------------------

namespace {

/// Kinds a shadow record can carry.
enum class AccessKind : std::uint8_t { kNone = 0, kRead, kWrite, kAtomic };

/// One remembered access: who touched the word last, and how.
struct Rec {
  std::uint32_t block_p1 = 0;  ///< block index + 1; 0 = empty slot
  std::uint32_t lane = kBlockLane;
  std::uint32_t epoch = 0;
  AccessKind kind = AccessKind::kNone;

  [[nodiscard]] bool valid() const { return block_p1 != 0; }
  [[nodiscard]] std::size_t block() const { return block_p1 - 1; }
};

/// Shadow state for one registered buffer: a last-writer record plus the two
/// most recent reader records from distinct owners per word.  Two reader
/// slots play the same completeness role as the sweep's two-slot Frontier:
/// if the newest reader is the incoming writer itself, the runner-up (a
/// different owner by construction) still witnesses the read/write hazard.
struct Word {
  Rec wr;
  Rec rd0, rd1;
};

/// One on-demand shadow page: kShadowPageWords record slots.  A page that a
/// kernel never touches is a single null pointer in the page table, which is
/// what lets word mode run over cosmology-scale registered buffers without
/// tens of bytes of shadow per *registered* word — cost tracks *touched*
/// words (rounded up to pages).
using ShadowPage = std::array<Word, kShadowPageWords>;

}  // namespace

struct WordShadow::Impl {
  std::string kernel;
  std::vector<BufMeta> bufs;
  /// Per buffer: a page table indexed by word / kShadowPageWords; pages are
  /// allocated on first touch.
  std::vector<std::vector<std::unique_ptr<ShadowPage>>> shadow;
  int sample = 1;                       ///< 1-in-N word sampling (1: every word)
  std::uint64_t pages_allocated = 0;
  std::uint64_t words_recorded = 0;     ///< record() calls that passed sampling
  std::size_t block = 0;
  std::vector<HazardFinding> hazards;
  std::vector<RaceFinding> races;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen_hazards;  ///< (buf<<32|lane pair, word)
  std::vector<std::tuple<std::uint32_t, std::size_t, std::size_t>> seen_races;

  [[nodiscard]] bool conflicts(const Rec& prev, bool write, bool atomic) const {
    if (!prev.valid()) return false;
    const bool prev_atomic = prev.kind == AccessKind::kAtomic;
    if (prev_atomic && atomic) return false;  // atomics never race each other
    const bool prev_write = prev.kind != AccessKind::kRead;
    return write || prev_write;
  }

  void flag_cross_block(const Rec& prev, std::uint32_t buf, std::uint64_t word, bool write) {
    if (races.size() >= kMaxRacesPerLaunch) return;
    // The initializer-list form returns values: the pair form would keep a
    // reference to the temporary prev.block().
    const auto p = std::minmax({prev.block(), block});
    const std::tuple<std::uint32_t, std::size_t, std::size_t> key{buf, p.first, p.second};
    if (std::find(seen_races.begin(), seen_races.end(), key) != seen_races.end()) return;
    seen_races.push_back(key);
    const BufMeta& m = bufs[buf];
    const bool prev_write = prev.kind != AccessKind::kRead;
    races.push_back({kernel, m.name, prev.block(), block, word * m.elem_bytes,
                     (word + 1) * m.elem_bytes, m.elem_bytes, write && prev_write});
  }

  void flag_intra_block(const Rec& prev, std::uint32_t buf, std::uint64_t word,
                        std::uint32_t lane, bool write) {
    if (hazards.size() >= kMaxHazardsPerLaunch) return;
    // One finding per (buffer, lane pair) per word keeps reports readable.
    const auto lanes = std::minmax(prev.lane, lane);
    const std::uint64_t pair_key =
        (static_cast<std::uint64_t>(buf) << 48) |
        (static_cast<std::uint64_t>(lanes.first & 0xffffffu) << 24) |
        (lanes.second & 0xffffffu);
    const std::pair<std::uint64_t, std::uint64_t> key{pair_key, word};
    if (std::find(seen_hazards.begin(), seen_hazards.end(), key) != seen_hazards.end()) return;
    seen_hazards.push_back(key);
    const BufMeta& m = bufs[buf];
    const bool prev_write = prev.kind != AccessKind::kRead;
    hazards.push_back(
        {kernel, m.name, block, prev.lane, lane, word, m.elem_bytes, write && prev_write});
  }

  void record(std::uint32_t buf, std::uint64_t word, bool write, bool atomic) {
    // Sampling mode: only every sample-th word carries shadow state.  Dense
    // hazards (spanning >= sample consecutive words) still hit a tracked
    // word; the memory and time cost drop by ~sample.
    if (sample > 1 && word % static_cast<std::uint64_t>(sample) != 0) return;
    auto& pages = shadow[buf];
    const auto page_idx = static_cast<std::size_t>(word / kShadowPageWords);
    std::unique_ptr<ShadowPage>& page = pages[page_idx];
    if (page == nullptr) {
      page = std::make_unique<ShadowPage>();
      ++pages_allocated;
    }
    ++words_recorded;
    Word& w = (*page)[static_cast<std::size_t>(word % kShadowPageWords)];
    const std::uint32_t lane = detail::t_lane.lane;
    const std::uint32_t epoch = detail::t_lane.epoch;

    const auto check_prev = [&](const Rec& prev) {
      if (!conflicts(prev, write, atomic)) return;
      if (prev.block() != block) {
        flag_cross_block(prev, buf, word, write);
        return;
      }
      // Same block: only a hazard between two *modeled* lanes racing within
      // one barrier epoch.  kBlockLane accesses and barrier-separated epochs
      // are ordered by construction.
      if (prev.lane != kBlockLane && lane != kBlockLane && prev.lane != lane &&
          prev.epoch == epoch) {
        flag_intra_block(prev, buf, word, lane, write);
      }
    };

    // A new write conflicts with the last writer and recent readers; a new
    // read only with the last writer.
    check_prev(w.wr);
    if (write) {
      check_prev(w.rd0);
      check_prev(w.rd1);
    }

    const Rec rec{static_cast<std::uint32_t>(block + 1), lane, epoch,
                  atomic ? AccessKind::kAtomic : (write ? AccessKind::kWrite : AccessKind::kRead)};
    if (write) {
      w.wr = rec;
    } else if (w.rd0.valid() && w.rd0.block() == block && w.rd0.lane == lane) {
      w.rd0 = rec;  // same owner: refresh in place
    } else {
      w.rd1 = w.rd0;  // keep two most recent distinct owners
      w.rd0 = rec;
    }
  }
};

WordShadow::WordShadow(const char* kernel, std::vector<BufMeta> bufs)
    : impl_(std::make_unique<Impl>()) {
  impl_->kernel = kernel;
  impl_->sample = word_sample();
  impl_->shadow.reserve(bufs.size());
  // Only the page *tables* are allocated up front (8 bytes per
  // kShadowPageWords words); pages fill in on first touch.
  for (const BufMeta& m : bufs) {
    impl_->shadow.emplace_back(m.elems == 0 ? 0 : (m.elems - 1) / kShadowPageWords + 1);
  }
  impl_->bufs = std::move(bufs);
}

WordShadow::~WordShadow() = default;

void WordShadow::begin_block(std::size_t block) { impl_->block = block; }

void WordShadow::record(std::uint32_t buf, std::uint64_t word, bool write, bool atomic) {
  impl_->record(buf, word, write, atomic);
}

void WordShadow::finish() {
  const std::lock_guard<std::mutex> lock(report_mutex());
  CheckReport& report = mutable_report();
  for (auto& h : impl_->hazards) report.hazards.push_back(std::move(h));
  for (auto& r : impl_->races) report.races.push_back(std::move(r));
  report.shadow_pages += impl_->pages_allocated;
  report.shadow_words += impl_->words_recorded;
}

// ---------------------------------------------------------------------------
// Schedule-fuzz support.
// ---------------------------------------------------------------------------

namespace detail {

std::uint64_t fnv1a(const void* p, std::size_t nbytes) {
  const auto* bytes = static_cast<const std::uint8_t*>(p);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < nbytes; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void make_fuzz_order(int s, std::size_t n, std::vector<std::size_t>& order, bool* parallel,
                     std::string* name) {
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  if (s == 1) {
    std::reverse(order.begin(), order.end());
    *parallel = true;
    *name = "reversed";
  } else if (s == 2) {
    *parallel = false;
    *name = "serial";
  } else {
    // Deterministic seeded shuffle: same (s, n) always yields the same order.
    std::minstd_rand rng(static_cast<std::uint32_t>(s) * 2654435761u ^
                         static_cast<std::uint32_t>(n));
    std::shuffle(order.begin(), order.end(), rng);
    *parallel = true;
    *name = "shuffle#" + std::to_string(s - 2);
  }
}

void make_fuzz_order_3d(int s, Dim3 grid, std::vector<std::size_t>& order, bool* parallel,
                        std::string* name) {
  const std::size_t n = grid.count();
  if (s > 6) {
    // Past the six axis orders, fall back to the linear repertoire:
    // 7 -> reversed, 8 -> serial, 9+ -> seeded shuffles.
    make_fuzz_order(s - 6, n, order, parallel, name);
    return;
  }
  // The six permutations of (fastest, middle, slowest) traversal axes,
  // where axis 0 = x, 1 = y, 2 = z.  The canonical linear layout is "xyz"
  // (x fastest): linear = (bz*gy + by)*gx + bx.
  static constexpr std::array<std::array<int, 3>, 6> kPerms{
      {{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}};
  static constexpr std::array<const char*, 6> kNames{"xyz", "xzy", "yxz",
                                                     "yzx", "zxy", "zyx"};
  const std::array<int, 3>& p = kPerms[static_cast<std::size_t>(s - 1)];
  const std::size_t ext[3] = {grid.x, grid.y, grid.z};
  order.clear();
  order.reserve(n);
  std::size_t idx[3] = {0, 0, 0};
  for (std::size_t a2 = 0; a2 < ext[p[2]]; ++a2) {
    for (std::size_t a1 = 0; a1 < ext[p[1]]; ++a1) {
      for (std::size_t a0 = 0; a0 < ext[p[0]]; ++a0) {
        idx[p[2]] = a2;
        idx[p[1]] = a1;
        idx[p[0]] = a0;
        order.push_back((idx[2] * ext[1] + idx[1]) * ext[0] + idx[0]);
      }
    }
  }
  // Serial execution honors the permuted traversal exactly, so a diff under
  // an axis order is deterministic (and reproducible from the name alone).
  *parallel = false;
  *name = std::string("axis-order:") + kNames[static_cast<std::size_t>(s - 1)];
}

void append_schedule_finding(const char* kernel, const char* buffer, const std::string& schedule,
                             std::uint64_t ref, std::uint64_t got) {
  const std::lock_guard<std::mutex> lock(report_mutex());
  CheckReport& r = mutable_report();
  if (r.schedule_diffs.size() >= kMaxRacesPerLaunch) return;
  r.schedule_diffs.push_back({kernel, buffer, schedule, ref, got});
}

void note_fuzzed_launch() {
  const std::lock_guard<std::mutex> lock(report_mutex());
  ++mutable_report().launches_fuzzed;
}

void append_contract_finding(const ContractFinding& f) {
  const std::lock_guard<std::mutex> lock(report_mutex());
  mutable_report().contract_mismatches.push_back(f);
}

void append_traffic_finding(const TrafficFinding& f) {
  const std::lock_guard<std::mutex> lock(report_mutex());
  mutable_report().traffic_mismatches.push_back(f);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

std::string RaceFinding::to_string() const {
  std::ostringstream os;
  os << (write_write ? "WRITE/WRITE" : "READ/WRITE") << " race: kernel '" << kernel
     << "', buffer '" << buffer << "', blocks " << block_a << " and " << block_b
     << " both touch bytes [" << byte_lo << ", " << byte_hi << ") (elements ["
     << byte_lo / elem_bytes << ", " << (byte_hi + elem_bytes - 1) / elem_bytes << "))";
  return os.str();
}

std::string HazardFinding::to_string() const {
  std::ostringstream os;
  os << (write_write ? "WRITE/WRITE" : "READ/WRITE") << " intra-block hazard: kernel '" << kernel
     << "', block " << block << ", lanes " << lane_a << " and " << lane_b
     << " both touch buffer '" << buffer << "' word " << word << " (" << elem_bytes
     << " bytes) within one barrier epoch";
  return os.str();
}

std::string OobFinding::to_string() const {
  std::ostringstream os;
  os << "OUT-OF-BOUNDS " << (is_write ? "write" : "read") << ": kernel '" << kernel
     << "', buffer '" << buffer << "', block " << block << ", element " << element_index
     << " outside extent [0, " << element_count << ")";
  return os.str();
}

std::string TrafficFinding::to_string() const {
  std::ostringstream os;
  os << "TRAFFIC-MISMATCH " << (is_write ? "write" : "read") << ": kernel '" << kernel
     << "', buffer '" << buffer << "', observed " << observed_bytes
     << " bytes exceed the statically derived " << predicted_bytes << "-byte volume";
  return os.str();
}

std::string ScheduleFinding::to_string() const {
  std::ostringstream os;
  os << "SCHEDULE-DEPENDENT output: kernel '" << kernel << "', buffer '" << buffer
     << "' differs under block order '" << schedule << "' (checksum " << std::hex << checksum_got
     << " vs canonical " << checksum_ref << std::dec << ")";
  return os.str();
}

std::string report_text() {
  const CheckReport& r = current_report();
  std::ostringstream os;
  os << "sim-check: " << r.launches_checked << " launch(es) checked, " << r.races.size()
     << " race(s), " << r.hazards.size() << " intra-block hazard(s), " << r.oob.size()
     << " out-of-bounds access(es)";
  if (r.launches_fuzzed > 0 || !r.schedule_diffs.empty()) {
    os << ", " << r.launches_fuzzed << " launch(es) schedule-fuzzed, " << r.schedule_diffs.size()
       << " schedule divergence(s)";
  }
  if (r.shadow_pages > 0) {
    os << ", " << r.shadow_pages << " shadow page(s) for " << r.shadow_words
       << " word access(es)";
  }
  if (!r.contract_mismatches.empty()) {
    os << ", " << r.contract_mismatches.size() << " contract mismatch(es)";
  }
  if (!r.traffic_mismatches.empty()) {
    os << ", " << r.traffic_mismatches.size() << " traffic mismatch(es)";
  }
  os << "\n";

  // Sorted copies: findings print in (kernel, block, buffer, offset) order so
  // the text is stable regardless of discovery/schedule order.
  auto races = r.races;
  std::sort(races.begin(), races.end(), [](const RaceFinding& a, const RaceFinding& b) {
    return std::tie(a.kernel, a.block_a, a.block_b, a.buffer, a.byte_lo) <
           std::tie(b.kernel, b.block_a, b.block_b, b.buffer, b.byte_lo);
  });
  auto hazards = r.hazards;
  std::sort(hazards.begin(), hazards.end(), [](const HazardFinding& a, const HazardFinding& b) {
    return std::tie(a.kernel, a.block, a.buffer, a.word, a.lane_a, a.lane_b) <
           std::tie(b.kernel, b.block, b.buffer, b.word, b.lane_a, b.lane_b);
  });
  auto oob = r.oob;
  std::sort(oob.begin(), oob.end(), [](const OobFinding& a, const OobFinding& b) {
    return std::tie(a.kernel, a.block, a.buffer, a.element_index) <
           std::tie(b.kernel, b.block, b.buffer, b.element_index);
  });
  auto mismatches = r.contract_mismatches;
  std::sort(mismatches.begin(), mismatches.end(),
            [](const ContractFinding& a, const ContractFinding& b) {
              return std::tie(a.kernel, a.block, a.buffer, a.elem_lo) <
                     std::tie(b.kernel, b.block, b.buffer, b.elem_lo);
            });
  auto traffic_mismatches = r.traffic_mismatches;
  std::sort(traffic_mismatches.begin(), traffic_mismatches.end(),
            [](const TrafficFinding& a, const TrafficFinding& b) {
              return std::tie(a.kernel, a.buffer, a.observed_bytes) <
                     std::tie(b.kernel, b.buffer, b.observed_bytes);
            });
  auto diffs = r.schedule_diffs;
  std::sort(diffs.begin(), diffs.end(), [](const ScheduleFinding& a, const ScheduleFinding& b) {
    return std::tie(a.kernel, a.buffer, a.schedule) < std::tie(b.kernel, b.buffer, b.schedule);
  });

  for (const auto& f : races) os << "  " << f.to_string() << "\n";
  for (const auto& f : hazards) os << "  " << f.to_string() << "\n";
  for (const auto& f : oob) os << "  " << f.to_string() << "\n";
  for (const auto& f : mismatches) os << "  " << f.to_string() << "\n";
  for (const auto& f : traffic_mismatches) os << "  " << f.to_string() << "\n";
  for (const auto& f : diffs) os << "  " << f.to_string() << "\n";
  if (r.clean()) os << "  no violations detected\n";
  return os.str();
}

}  // namespace szp::sim::checked
