// szp::sim::checked — race & bounds checking for the simulated-GPU substrate.
//
// launch.hh states the contract every kernel in this reproduction depends on:
// a block may only touch state owned by its block.  On a real GPU, violating
// it is a data race that compute-sanitizer's racecheck/memcheck tools catch;
// here OpenMP's static schedule can silently serialize the offending blocks
// and hide the bug until a refactor reshuffles the schedule.  This header
// enforces the contract mechanically with a two-tier analysis engine:
//
//   * call sites register each global buffer a kernel touches (in / out /
//     inout) and receive *views* in the kernel body;
//   * with checking OFF (the default), the views are raw pointer wrappers
//     that inline away — the unchecked instantiation of the body is
//     byte-for-byte the code that ran before this subsystem existed;
//   * tier 1 (Mode::kInterval, via SZP_SIM_CHECK=1 / --check): every element
//     access is logged into a per-block footprint (coalesced byte intervals
//     per buffer), and after the grid completes the footprints are swept for
//       (a) write/write and read/write overlaps between *distinct* blocks —
//           races that would be real on a GPU regardless of how OpenMP
//           happened to schedule them, and
//       (b) accesses outside the registered buffer extents;
//   * tier 2 (Mode::kWord, via SZP_SIM_CHECK=word / --check=word): each
//     registered buffer additionally gets a word-granular shadow array in the
//     style of compute-sanitizer's racecheck — per-word last-writer and
//     recent-reader records carrying (block, lane, barrier epoch).  Kernels
//     that model their cooperating threads explicitly (chk::this_thread(tid)
//     to switch lanes, chk::barrier() to close an epoch — see block_scan.hh,
//     histogram.hh) get *intra-block* hazard detection: two lanes of the same
//     block touching the same word in the same epoch, at least one a write and
//     not both atomic, is reported with kernel, block, both lanes, buffer, and
//     word.  Benign striding (lanes on disjoint words) and barrier-ordered
//     reuse are not flagged.  Word mode serializes block execution so the
//     shadow needs no synchronization and reports are deterministic.  The
//     shadow itself is *paged* — fixed-size pages allocated on first touch
//     (kShadowPageWords words each) — so word mode scales to bench-size
//     fields; an optional 1-in-N sampling mode (SZP_SIM_CHECK_SAMPLE=N /
//     set_word_sample) trades detection density for another factor of ~N.
//
// Orthogonally, schedule fuzzing (set_fuzz_schedules(N) /
// SZP_SIM_FUZZ_SCHEDULE=N / --fuzz-schedule[=N]) re-executes every
// registered multi-block grid under N perturbed block orders — reversed,
// strictly serial, and seeded shuffles run on the default team —
// and diffs FNV-1a checksums of every writable buffer against the canonical
// run.  Grids registered through launch_3d additionally replay under all
// six z/y/x axis traversal orders (serially, so the permuted traversal is
// exact).  Any order-dependence a static footprint cannot prove becomes a
// deterministic ScheduleFinding.
//
// Findings accumulate in a process-global report (checked::current_report)
// that the CLI's --check / --fuzz-schedule flags print and tests assert on.
// See DESIGN.md §"Checked-launch mode" for the mapping to compute-sanitizer.
//
// Static footprint contracts (sim/contract.hh, sim/prove.hh) layer on top:
// every launch declares each block's read/write footprint as affine
// expressions over the block index (a launch without one does not
// compile), and then
//   * the interval tier cross-validates every observed footprint against
//     the declaration (observed ⊆ declared → ContractFinding on mismatch),
//   * every checked launch is proved (cross-block disjointness + bounds)
//     and its verdict recorded, which `szp analyze` renders; a verdict
//     changes nothing either tier runs, and word mode shadows every launch.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/contract.hh"
#include "sim/launch.hh"
#include "sim/prove.hh"
#include "sim/traffic.hh"

namespace szp::sim::checked {

// ---------------------------------------------------------------------------
// Global switches and accumulated report (definitions in check.cc).
// ---------------------------------------------------------------------------

/// Checking tier.  kInterval is tier 1 (cheap per-block byte intervals,
/// cross-block races only); kWord is tier 2 (word-granular shadow memory,
/// intra-block hazards too, serialized execution).
enum class Mode : int { kOff = 0, kInterval = 1, kWord = 2 };

/// Current tier.  First call latches the SZP_SIM_CHECK environment variable
/// ("word" selects kWord, any other non-empty non-"0" value kInterval);
/// set_mode() overrides at any time.
[[nodiscard]] Mode mode();
void set_mode(Mode m);

/// True when access tracking is active (mode() != kOff).
[[nodiscard]] bool enabled();

/// Number of perturbed block schedules every multi-block launch is replayed
/// under (0: fuzzing off).  First call latches SZP_SIM_FUZZ_SCHEDULE.
/// 3-D-registered grids (chk::launch_3d) always replay at least the eight
/// deterministic 3-D schedules — all six z/y/x axis traversal orders plus
/// reversed and serial — regardless of a smaller N.
[[nodiscard]] int fuzz_schedules();
void set_fuzz_schedules(int n);

/// Word-shadow sampling divisor for tier 2: 1 (the default) tracks every
/// word; N > 1 tracks only words whose index is a multiple of N — a 1-in-N
/// sampling mode that cuts shadow memory and checking time by ~N on
/// bench-scale inputs while still catching dense hazards (any conflict
/// spanning >= N consecutive words hits a tracked one).  First call latches
/// SZP_SIM_CHECK_SAMPLE.
[[nodiscard]] int word_sample();
void set_word_sample(int n);

/// Words per tier-2 shadow page.  The shadow is paged and pages are
/// allocated on first touch, so a launch registering a huge buffer only
/// pays shadow memory for the pages its kernel actually visits.
inline constexpr std::size_t kShadowPageWords = 1024;

/// Lane id meaning "the whole block" — accesses not attributed to a modeled
/// thread.  Such accesses never produce intra-block hazards.
inline constexpr std::uint32_t kBlockLane = 0xffffffffu;

namespace detail {
/// Per-OS-thread lane context, active only while a word-mode block body is
/// executing on this thread.
struct LaneState {
  bool active = false;
  std::uint32_t lane = kBlockLane;
  std::uint32_t epoch = 0;
};
// Defined inline with a constant initializer: an `extern thread_local`
// is read through the compiler's TLS wrapper function, which UBSan reports
// as a member access within a null pointer.
inline constinit thread_local LaneState t_lane;
}  // namespace detail

/// Declare that the code until the next this_thread()/barrier() models the
/// given cooperating thread (lane) of the current block.  No-op unless a
/// word-mode launch is in flight on this OS thread.
inline void this_thread(std::uint32_t lane) {
  if (detail::t_lane.active) detail::t_lane.lane = lane;
}

/// Model __syncthreads(): closes the current barrier epoch.  Accesses in
/// different epochs of one block are ordered and can never conflict.
inline void barrier() {
  detail::LaneState& s = detail::t_lane;
  if (s.active) {
    ++s.epoch;
    s.lane = kBlockLane;
  }
}

/// A cross-block overlap on one buffer: a race that would be real on a GPU.
struct RaceFinding {
  std::string kernel;
  std::string buffer;
  std::size_t block_a = 0;      ///< linear block index of one party
  std::size_t block_b = 0;      ///< linear block index of the other
  std::uint64_t byte_lo = 0;    ///< overlapping byte window within the buffer
  std::uint64_t byte_hi = 0;
  std::uint32_t elem_bytes = 1; ///< element size, for index reporting
  bool write_write = true;      ///< false: read/write hazard

  [[nodiscard]] std::string to_string() const;
};

/// An intra-block hazard found by the word-granular shadow (tier 2): two
/// lanes of one block touch the same word in the same barrier epoch.
struct HazardFinding {
  std::string kernel;
  std::string buffer;
  std::size_t block = 0;
  std::uint32_t lane_a = kBlockLane;  ///< earlier party
  std::uint32_t lane_b = kBlockLane;  ///< later party
  std::uint64_t word = 0;             ///< element index within the buffer
  std::uint32_t elem_bytes = 1;
  bool write_write = true;            ///< false: read/write hazard

  [[nodiscard]] std::string to_string() const;
};

/// An access outside a registered buffer's extent.
struct OobFinding {
  std::string kernel;
  std::string buffer;
  std::size_t block = 0;
  std::uint64_t element_index = 0;  ///< offending element index
  std::uint64_t element_count = 0;  ///< registered extent, in elements
  bool is_write = false;

  [[nodiscard]] std::string to_string() const;
};

/// An observed access outside the launch's declared footprint contract:
/// either the contract is stale (under-declared) or the kernel strayed.
/// Either way the static verdict cannot be trusted for this kernel, so a
/// mismatch is a finding, not a warning.
struct ContractFinding {
  std::string kernel;
  std::string buffer;
  std::size_t block = 0;
  std::uint64_t elem_lo = 0;  ///< observed element range not covered ...
  std::uint64_t elem_hi = 0;  ///< ... by the declared footprint
  bool is_write = false;

  [[nodiscard]] std::string to_string() const;
};

/// Observed traffic on one buffer exceeded the statically predicted volume
/// (the declared `*_dyn` bound included): either the contract's bound is
/// under-declared or the kernel moved more bytes than its contract admits.
/// The static traffic table cannot be trusted for this kernel.
struct TrafficFinding {
  std::string kernel;
  std::string buffer;
  std::uint64_t observed_bytes = 0;   ///< summed per-block observed footprints
  std::uint64_t predicted_bytes = 0;  ///< statically derived upper bound
  bool is_write = false;

  [[nodiscard]] std::string to_string() const;
};

/// A schedule-fuzz divergence: replaying the grid under a perturbed block
/// order produced different bytes in a writable buffer.
struct ScheduleFinding {
  std::string kernel;
  std::string buffer;
  std::string schedule;         ///< "reversed", "serial", "shuffle#3", ...
  std::uint64_t checksum_ref = 0;
  std::uint64_t checksum_got = 0;

  [[nodiscard]] std::string to_string() const;
};

/// Everything the checker found since the last reset().
struct CheckReport {
  std::vector<RaceFinding> races;
  std::vector<HazardFinding> hazards;
  std::vector<OobFinding> oob;
  std::vector<ContractFinding> contract_mismatches;
  std::vector<TrafficFinding> traffic_mismatches;
  std::vector<ScheduleFinding> schedule_diffs;
  std::uint64_t launches_checked = 0;
  std::uint64_t launches_fuzzed = 0;
  std::uint64_t shadow_pages = 0;  ///< tier-2 shadow pages allocated on touch
  std::uint64_t shadow_words = 0;  ///< tier-2 word accesses recorded (post-sampling)

  [[nodiscard]] bool clean() const {
    return races.empty() && hazards.empty() && oob.empty() && contract_mismatches.empty() &&
           traffic_mismatches.empty() && schedule_diffs.empty();
  }
};

/// Accumulated findings (read-only; owned by the checker).
[[nodiscard]] const CheckReport& current_report();

/// Human-readable summary of current_report(), compute-sanitizer style.
/// Findings are printed in sorted order — (kernel, block, buffer, offset) —
/// so CI log diffs are stable regardless of discovery order.
[[nodiscard]] std::string report_text();

/// Drop all accumulated findings and reset the launch counters.
void reset();

/// RAII mode override for tests: selects the given tier and clears findings
/// on construction, restores the previous tier on destruction.
class ScopedMode {
 public:
  explicit ScopedMode(Mode m) : prev_(mode()) {
    set_mode(m);
    reset();
  }
  ~ScopedMode() { set_mode(prev_); }
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  Mode prev_;
};

/// RAII word-shadow sampling override for tests.
class ScopedWordSample {
 public:
  explicit ScopedWordSample(int n) : prev_(word_sample()) { set_word_sample(n); }
  ~ScopedWordSample() { set_word_sample(prev_); }
  ScopedWordSample(const ScopedWordSample&) = delete;
  ScopedWordSample& operator=(const ScopedWordSample&) = delete;

 private:
  int prev_;
};

/// RAII schedule-fuzz override for tests.
class ScopedFuzz {
 public:
  explicit ScopedFuzz(int n) : prev_(fuzz_schedules()) { set_fuzz_schedules(n); }
  ~ScopedFuzz() { set_fuzz_schedules(prev_); }
  ScopedFuzz(const ScopedFuzz&) = delete;
  ScopedFuzz& operator=(const ScopedFuzz&) = delete;

 private:
  int prev_;
};

// ---------------------------------------------------------------------------
// Per-block footprint log (tier 1) and out-of-bounds capture (both tiers).
// ---------------------------------------------------------------------------

/// One coalesced byte interval [lo, hi) touched on buffer `buf`.
struct TaggedInterval {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint32_t buf = 0;
  bool write = false;
};

struct OobHit {
  std::uint32_t buf = 0;
  std::uint64_t index = 0;  ///< element index
  bool write = false;
};

/// Access log for one block of one launch.  Owned exclusively by the OpenMP
/// thread running the block, so no synchronization is needed while recording.
struct BlockLog {
  std::vector<TaggedInterval> acc;
  std::vector<OobHit> oob;

  static constexpr std::size_t kMaxOobPerBlock = 8;

  void add(std::uint32_t buf, bool write, std::uint64_t lo, std::uint64_t hi) {
    // Coalesce with the most recent records: sequential sweeps collapse to a
    // single interval, and interleaved read/write on the same cells (inout
    // buffers) collapse to one interval of each kind.
    const std::size_t n = acc.size();
    for (std::size_t back = 0; back < 2 && back < n; ++back) {
      TaggedInterval& t = acc[n - 1 - back];
      if (t.buf == buf && t.write == write && lo <= t.hi && hi >= t.lo) {
        t.lo = std::min(t.lo, lo);
        t.hi = std::max(t.hi, hi);
        return;
      }
    }
    acc.push_back({lo, hi, buf, write});
  }

  void add_oob(std::uint32_t buf, std::uint64_t index, bool write) {
    if (oob.size() < kMaxOobPerBlock) oob.push_back({buf, index, write});
  }
};

/// Registered extent of one buffer, for analysis and reporting (the one
/// descriptor the prover, the traffic analyzer and the checker share).
using contract::BufMeta;

/// Sweep all block footprints of one completed launch for cross-block
/// overlaps and OOB hits; append findings to the global report.
void analyze_launch(const char* kernel, const std::vector<BufMeta>& bufs,
                    const std::vector<BlockLog>& logs);

// ---------------------------------------------------------------------------
// Word-granular shadow memory (tier 2).
// ---------------------------------------------------------------------------

/// Per-launch shadow state: one paged access-record table per registered
/// buffer, one record slot set per word, pages of kShadowPageWords words
/// allocated on first touch (a never-touched page costs one null pointer).
/// record() performs hazard detection inline (blocks run serially in word
/// mode, so every earlier access is visible) and honors the 1-in-N
/// word_sample() filter; finish() appends the collected findings plus
/// page/word statistics to the global report.
class WordShadow {
 public:
  WordShadow(const char* kernel, std::vector<BufMeta> bufs);
  ~WordShadow();
  WordShadow(const WordShadow&) = delete;
  WordShadow& operator=(const WordShadow&) = delete;

  void begin_block(std::size_t block);
  void record(std::uint32_t buf, std::uint64_t word, bool write, bool atomic);
  void finish();  ///< append hazards/races to the global report

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---------------------------------------------------------------------------
// Buffer registration descriptors.
// ---------------------------------------------------------------------------

template <typename T>
struct ReadBuf {
  const T* p;
  std::size_t n;
  const char* name;
};

template <typename T>
struct WriteBuf {
  T* p;
  std::size_t n;
  const char* name;
  bool read_write;  ///< true: accesses count as read+write (inout)
};

/// Register a read-only input buffer.
template <typename T>
[[nodiscard]] ReadBuf<T> in(std::span<const T> s, const char* name) {
  return {s.data(), s.size(), name};
}

/// Register a write-only output buffer.
template <typename T>
[[nodiscard]] WriteBuf<T> out(std::span<T> s, const char* name) {
  return {s.data(), s.size(), name, false};
}

/// Register a read-modify-write buffer (every access counts as both).
template <typename T>
[[nodiscard]] WriteBuf<T> inout(std::span<T> s, const char* name) {
  return {s.data(), s.size(), name, true};
}

/// Bundle buffer registrations for a launch.
template <typename... B>
[[nodiscard]] std::tuple<B...> bufs(B... b) {
  return std::tuple<B...>(b...);
}

// ---------------------------------------------------------------------------
// Views: what the kernel body receives.
// ---------------------------------------------------------------------------

// Unchecked pass-through views.  Everything inlines to the raw pointer
// arithmetic the kernels used before instrumentation: zero overhead.
template <typename T>
struct raw_reader_view {
  const T* p;
  std::size_t n;

  const T& operator[](std::size_t i) const { return p[i]; }
  [[nodiscard]] const T* data() const { return p; }
  [[nodiscard]] std::size_t size() const { return n; }
  [[nodiscard]] bool word_granular() const { return false; }
  void note_read(std::size_t, std::size_t) const {}
};

template <typename T>
struct raw_writer_view {
  T* p;
  std::size_t n;

  T& operator[](std::size_t i) const { return p[i]; }
  [[nodiscard]] T* data() const { return p; }
  [[nodiscard]] std::size_t size() const { return n; }
  [[nodiscard]] bool word_granular() const { return false; }
  void note_read(std::size_t, std::size_t) const {}
  void note_write(std::size_t, std::size_t) const {}
  void note_rw(std::size_t, std::size_t) const {}
  void atomic_add(std::size_t i, T v) const { p[i] = static_cast<T>(p[i] + v); }
};

/// True for the unchecked views, so a kernel can compile lane attribution
/// into its checked instantiation only.
template <typename V>
inline constexpr bool is_raw_view = false;
template <typename T>
inline constexpr bool is_raw_view<raw_reader_view<T>> = true;
template <typename T>
inline constexpr bool is_raw_view<raw_writer_view<T>> = true;

// Tracking views.  operator[] records the touched byte range into the
// block's interval log (tier 1) or the per-word shadow (tier 2);
// out-of-range accesses are recorded and redirected to a sink so the kernel
// keeps running and the grid-level report stays complete.
template <typename T>
class reader_view {
 public:
  reader_view(const T* p, std::size_t n, BlockLog* log, std::uint32_t id, WordShadow* shadow)
      : p_(p), n_(n), log_(log), id_(id), shadow_(shadow) {}

  const T& operator[](std::size_t i) const {
    if (i >= n_) {
      log_->add_oob(id_, i, false);
      return sink();
    }
    if (shadow_ != nullptr) {
      shadow_->record(id_, i, false, false);
    } else {
      log_->add(id_, false, i * sizeof(T), (i + 1) * sizeof(T));
    }
    return p_[i];
  }

  [[nodiscard]] const T* data() const { return p_; }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool word_granular() const { return shadow_ != nullptr; }

  /// Declare a bulk read of [i, i+count) before touching it via data().
  void note_read(std::size_t i, std::size_t count) const {
    if (count == 0) return;
    if (i >= n_ || count > n_ - i) {
      log_->add_oob(id_, i >= n_ ? i : n_, false);
      if (i >= n_) return;
      count = n_ - i;
    }
    if (shadow_ != nullptr) {
      for (std::size_t k = 0; k < count; ++k) shadow_->record(id_, i + k, false, false);
    } else {
      log_->add(id_, false, i * sizeof(T), (i + count) * sizeof(T));
    }
  }

 private:
  static const T& sink() {
    static const T s{};
    return s;
  }

  const T* p_;
  std::size_t n_;
  BlockLog* log_;
  std::uint32_t id_;
  WordShadow* shadow_;
};

template <typename T>
class writer_view {
 public:
  writer_view(T* p, std::size_t n, BlockLog* log, std::uint32_t id, bool read_write,
              WordShadow* shadow)
      : p_(p), n_(n), log_(log), id_(id), rw_(read_write), shadow_(shadow) {}

  T& operator[](std::size_t i) const {
    if (i >= n_) {
      log_->add_oob(id_, i, true);
      return sink();
    }
    if (shadow_ != nullptr) {
      if (rw_) shadow_->record(id_, i, false, false);
      shadow_->record(id_, i, true, false);
    } else {
      if (rw_) log_->add(id_, false, i * sizeof(T), (i + 1) * sizeof(T));
      log_->add(id_, true, i * sizeof(T), (i + 1) * sizeof(T));
    }
    return p_[i];
  }

  [[nodiscard]] T* data() const { return p_; }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool word_granular() const { return shadow_ != nullptr; }

  /// Atomic read-modify-write of one element (GPU atomicAdd): atomics never
  /// conflict with each other, only with plain reads/writes.
  void atomic_add(std::size_t i, T v) const {
    if (i >= n_) {
      log_->add_oob(id_, i, true);
      return;
    }
    if (shadow_ != nullptr) {
      shadow_->record(id_, i, true, true);
    } else {
      log_->add(id_, true, i * sizeof(T), (i + 1) * sizeof(T));
    }
    p_[i] = static_cast<T>(p_[i] + v);
  }

  /// Declare a bulk read / write / read-modify-write of [i, i+count) before
  /// touching it via data() (for code that scans with raw pointers).
  void note_read(std::size_t i, std::size_t count) const { note(i, count, false, false); }
  void note_write(std::size_t i, std::size_t count) const { note(i, count, true, false); }
  void note_rw(std::size_t i, std::size_t count) const { note(i, count, true, true); }

 private:
  void note(std::size_t i, std::size_t count, bool write, bool also_read) const {
    if (count == 0) return;
    if (i >= n_ || count > n_ - i) {
      log_->add_oob(id_, i >= n_ ? i : n_, write);
      if (i >= n_) return;
      count = n_ - i;
    }
    if (shadow_ != nullptr) {
      for (std::size_t k = 0; k < count; ++k) {
        if (!write || also_read) shadow_->record(id_, i + k, false, false);
        if (write) shadow_->record(id_, i + k, true, false);
      }
      return;
    }
    if (!write || also_read) log_->add(id_, false, i * sizeof(T), (i + count) * sizeof(T));
    if (write) log_->add(id_, true, i * sizeof(T), (i + count) * sizeof(T));
  }

  static T& sink() {
    static thread_local T s{};
    return s;
  }

  T* p_;
  std::size_t n_;
  BlockLog* log_;
  std::uint32_t id_;
  bool rw_;
  WordShadow* shadow_;
};

// ---------------------------------------------------------------------------
// View construction and metadata extraction.
// ---------------------------------------------------------------------------

namespace detail {

template <typename T>
raw_reader_view<T> make_raw(const ReadBuf<T>& b) {
  return {b.p, b.n};
}
template <typename T>
raw_writer_view<T> make_raw(const WriteBuf<T>& b) {
  return {b.p, b.n};
}

template <typename T>
reader_view<T> make_tracked(const ReadBuf<T>& b, BlockLog* log, std::uint32_t id,
                            WordShadow* shadow) {
  return {b.p, b.n, log, id, shadow};
}
template <typename T>
writer_view<T> make_tracked(const WriteBuf<T>& b, BlockLog* log, std::uint32_t id,
                            WordShadow* shadow) {
  return {b.p, b.n, log, id, b.read_write, shadow};
}

template <typename... B>
std::vector<BufMeta> metas(const std::tuple<B...>& t) {
  return std::apply(
      [](const auto&... b) {
        return std::vector<BufMeta>{{b.name, b.n, sizeof(*b.p)}...};
      },
      t);
}

/// Append one contract-mismatch finding to the process-global report
/// (defined in check.cc, which owns the report mutex).
void append_contract_finding(const ContractFinding& f);

/// Append one traffic-mismatch finding to the process-global report
/// (defined in check.cc, which owns the report mutex).
void append_traffic_finding(const TrafficFinding& f);

/// Cross-validate the observed interval-tier footprints of one completed
/// launch against its declared contract: every observed access of block b
/// must lie inside the contract's evaluated footprint for block b
/// (observed ⊆ declared).  Appends ContractFindings for uncovered ranges.
/// Defined in contract.cc.
void validate_observed(const char* kernel, const contract::Contract& con,
                       const contract::Geom& geom, const std::vector<BufMeta>& bufs,
                       const std::vector<BlockLog>& logs);

/// Cross-validate the statically predicted traffic of one completed launch
/// against observation: per buffer and direction, the sum over blocks of the
/// observed (union-normalized) footprint bytes must not exceed the derived
/// volume — for dynamic clauses, the declared `*_dyn` bound.  Appends
/// TrafficFindings on excess.  Defined in traffic.cc.
void validate_traffic(const char* kernel, const traffic::LaunchTraffic& predicted,
                      const std::vector<BufMeta>& bufs, const std::vector<BlockLog>& logs);

template <typename Tuple, typename Fn, std::size_t... I>
decltype(auto) with_raw_views(const Tuple& t, Fn&& fn, std::index_sequence<I...>) {
  return fn(make_raw(std::get<I>(t))...);
}

template <typename Tuple, typename Fn, std::size_t... I>
decltype(auto) with_tracked_views(const Tuple& t, BlockLog* log, WordShadow* shadow, Fn&& fn,
                                  std::index_sequence<I...>) {
  return fn(make_tracked(std::get<I>(t), log, static_cast<std::uint32_t>(I), shadow)...);
}

// ---------------------------------------------------------------------------
// Schedule-fuzz plumbing (non-template pieces live in check.cc).
// ---------------------------------------------------------------------------

/// FNV-1a over a byte range, seeded so empty buffers hash to the seed.
[[nodiscard]] std::uint64_t fnv1a(const void* p, std::size_t nbytes);

/// Fill `order` for perturbed schedule `s` (1-based): 1 is reversed, 2 is
/// strictly serial (identity order, one thread), >=3 are seeded shuffles run
/// on the default team.  Deterministic for a given (s, n).
void make_fuzz_order(int s, std::size_t n, std::vector<std::size_t>& order, bool* parallel,
                     std::string* name);

/// 3-D variant for launch_3d-registered grids: schedules 1..6 are the six
/// axis traversal orders (named fastest-varying axis first; "xyz" is the
/// canonical x-fastest layout, "zyx" walks z fastest), executed serially so
/// the permuted traversal is honored exactly and any divergence is
/// deterministic; 7+ map onto the linear repertoire (reversed, serial,
/// seeded shuffles).
void make_fuzz_order_3d(int s, Dim3 grid, std::vector<std::size_t>& order, bool* parallel,
                        std::string* name);

void append_schedule_finding(const char* kernel, const char* buffer, const std::string& schedule,
                             std::uint64_t ref, std::uint64_t got);
void note_fuzzed_launch();

template <typename T>
void snapshot_one(const ReadBuf<T>&, std::vector<std::vector<std::uint8_t>>& out) {
  out.emplace_back();  // read-only: keep index alignment with metas()
}
template <typename T>
void snapshot_one(const WriteBuf<T>& b, std::vector<std::vector<std::uint8_t>>& out) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(b.p);
  out.emplace_back(bytes, bytes + b.n * sizeof(T));
}

template <typename T>
void restore_one(const ReadBuf<T>&, const std::vector<std::uint8_t>&) {}
template <typename T>
void restore_one(const WriteBuf<T>& b, const std::vector<std::uint8_t>& snap) {
  if (!snap.empty()) std::memcpy(b.p, snap.data(), snap.size());
}

template <typename T>
std::uint64_t checksum_one(const ReadBuf<T>&) {
  return 0;  // read-only buffers never diverge (and are never diffed)
}
template <typename T>
std::uint64_t checksum_one(const WriteBuf<T>& b) {
  return fnv1a(b.p, b.n * sizeof(T));
}

template <typename... B>
std::vector<std::vector<std::uint8_t>> snapshot_writable(const std::tuple<B...>& t) {
  std::vector<std::vector<std::uint8_t>> snaps;
  snaps.reserve(sizeof...(B));
  std::apply([&](const auto&... b) { (snapshot_one(b, snaps), ...); }, t);
  return snaps;
}

template <typename... B>
void restore_writable(const std::tuple<B...>& t,
                      const std::vector<std::vector<std::uint8_t>>& snaps) {
  std::size_t i = 0;
  std::apply([&](const auto&... b) { (restore_one(b, snaps[i++]), ...); }, t);
}

template <typename... B>
std::vector<std::uint64_t> checksum_writable(const std::tuple<B...>& t) {
  std::vector<std::uint64_t> sums;
  sums.reserve(sizeof...(B));
  std::apply([&](const auto&... b) { (sums.push_back(checksum_one(b)), ...); }, t);
  return sums;
}

/// Replay the grid under `schedules` perturbed block orders, diffing every
/// writable buffer's checksum against the canonical result.  `meta` is the
/// launch's descriptor list (it names a diverging buffer) and `pre` the
/// snapshot taken before the canonical run; the canonical post-state is
/// restored before returning so the pipeline continues deterministically.
/// `invoke(order, parallel)` must execute the whole grid with raw views.
/// A non-degenerate `grid3` (matching count, extent beyond x) selects the
/// 3-D schedule repertoire: z/y/x axis traversal orders first.
template <typename... B, typename InvokeRaw>
void run_schedule_fuzz(const char* kernel, const std::tuple<B...>& registered,
                       const std::vector<BufMeta>& meta, std::size_t grid_count, int schedules,
                       Dim3 grid3, const std::vector<std::vector<std::uint8_t>>& pre,
                       InvokeRaw&& invoke) {
  const bool axis_aware = grid3.count() == grid_count && (grid3.y > 1 || grid3.z > 1);
  const std::vector<std::uint64_t> ref = checksum_writable(registered);
  const std::vector<std::vector<std::uint8_t>> post = snapshot_writable(registered);
  std::vector<std::size_t> order(grid_count);
  for (int s = 1; s <= schedules; ++s) {
    bool parallel = true;
    std::string name;
    if (axis_aware) {
      make_fuzz_order_3d(s, grid3, order, &parallel, &name);
    } else {
      make_fuzz_order(s, grid_count, order, &parallel, &name);
    }
    restore_writable(registered, pre);
    invoke(std::span<const std::size_t>(order), parallel);
    const std::vector<std::uint64_t> got = checksum_writable(registered);
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i] != ref[i]) {
        append_schedule_finding(kernel, meta[i].name, name, ref[i], got[i]);
      }
    }
  }
  restore_writable(registered, post);
  note_fuzzed_launch();
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Instrumented launches.
// ---------------------------------------------------------------------------

namespace detail {

/// Shared implementation behind launch and launch_3d.  `grid3` carries the
/// 3-D geometry when the call came through launch_3d (degenerate {1,1,1}
/// otherwise) so the schedule fuzzer can permute z/y/x traversal instead of
/// linear order.
template <typename... B, typename Body>
void launch_impl(const char* kernel, std::size_t grid_size, const std::tuple<B...>& registered,
                 const contract::Contract& con, Body&& body, Dim3 grid3) {
  constexpr auto seq = std::index_sequence_for<B...>{};
  const Mode m = mode();
  int schedules = grid_size > 1 ? fuzz_schedules() : 0;

  const auto run_raw = [&](std::size_t b) {
    detail::with_raw_views(registered, [&](const auto&... views) { body(b, views...); }, seq);
  };

  // Checking off and no schedule fuzzing: the bare grid.  The contract is
  // not evaluated and nothing is recorded; stage costs are closed forms.
  if (m == Mode::kOff && schedules == 0) {
    launch_blocks(grid_size, run_raw);
    return;
  }

  // 3-D grids always cover the full deterministic 3-D repertoire: six axis
  // traversal orders, reversed, serial.
  const bool axis_aware = grid3.count() == grid_size && (grid3.y > 1 || grid3.z > 1);
  if (schedules > 0 && axis_aware) schedules = std::max(schedules, 8);

  // Contract evaluation while checking: derive and record the launch's
  // traffic, and prove once per launch geometry for `szp analyze`.
  const std::vector<BufMeta> meta = detail::metas(registered);
  const contract::Geom geom{static_cast<std::int64_t>(grid_size), grid3.x, grid3.y, grid3.z};
  traffic::LaunchTraffic predicted;
  if (m != Mode::kOff) {
    predicted = traffic::analyze(con, geom, meta);
    traffic::record(kernel, predicted);
    contract::note_launch(kernel, contract::prove(con, geom, meta));
  }

  std::vector<std::vector<std::uint8_t>> pre;
  if (schedules > 0) pre = detail::snapshot_writable(registered);

  if (m == Mode::kOff) {
    launch_blocks(grid_size, run_raw);
  } else if (m == Mode::kWord) {
    // Tier 2: serialize the grid so the shared shadow arrays need no locks
    // and hazard reports are deterministic.
    std::vector<BlockLog> logs(grid_size);
    WordShadow shadow(kernel, meta);
    for (std::size_t b = 0; b < grid_size; ++b) {
      shadow.begin_block(b);
      detail::t_lane = {true, kBlockLane, 0};
      detail::with_tracked_views(
          registered, &logs[b], &shadow, [&](const auto&... views) { body(b, views...); }, seq);
      detail::t_lane.active = false;
    }
    shadow.finish();
    analyze_launch(kernel, meta, logs);
  } else {
    std::vector<BlockLog> logs(grid_size);
    launch_blocks(grid_size, [&](std::size_t b) {
      detail::with_tracked_views(
          registered, &logs[b], nullptr, [&](const auto&... views) { body(b, views...); }, seq);
    });
    detail::validate_observed(kernel, con, geom, meta, logs);
    detail::validate_traffic(kernel, predicted, meta, logs);
    analyze_launch(kernel, meta, logs);
  }

  if (schedules > 0) {
    detail::run_schedule_fuzz(kernel, registered, meta, grid_size, schedules, grid3, pre,
                              [&](std::span<const std::size_t> order, bool parallel) {
                                launch_blocks_in_order(order, parallel, run_raw);
                              });
  }
}

}  // namespace detail

/// launch_blocks with buffer registration and a footprint contract:
/// body(block, view...).  The declared footprint is proved for `szp analyze`
/// and, on the interval tier, cross-validated against observation.
template <typename... B, typename Body>
void launch(const char* kernel, std::size_t grid_size, const std::tuple<B...>& registered,
            const contract::Contract& con, Body&& body) {
  detail::launch_impl(kernel, grid_size, registered, con, std::forward<Body>(body), Dim3{});
}

/// launch_blocks_3d with buffer registration and a footprint contract:
/// body(bx, by, bz, view...).  Block footprints are logged under the linear
/// index (bz*gy + by)*gx + bx.  The grid geometry is forwarded to the
/// schedule fuzzer, which replays 3-D grids under permuted z/y/x traversal
/// orders rather than linear shuffles alone.
template <typename... B, typename Body>
void launch_3d(const char* kernel, Dim3 grid, const std::tuple<B...>& registered,
               const contract::Contract& con, Body&& body) {
  detail::launch_impl(
      kernel, grid.count(), registered, con,
      [grid, &body](std::size_t linear, const auto&... views) {
        const auto bx = static_cast<std::uint32_t>(linear % grid.x);
        const auto by = static_cast<std::uint32_t>((linear / grid.x) % grid.y);
        const auto bz =
            static_cast<std::uint32_t>(linear / (static_cast<std::size_t>(grid.x) * grid.y));
        body(bx, by, bz, views...);
      },
      grid);
}

}  // namespace szp::sim::checked
