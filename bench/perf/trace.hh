// In-memory span and counter recorder for the perf harness.
//
// Spans form a tree (workload -> op -> call/replay -> unit -> stage); each
// carries its parent's index and the op id it belongs to.  Nothing is
// written while the benchmark runs: write_chrome_json() emits the whole
// recording at exit in the Chrome trace-event format, which Perfetto and
// chrome://tracing open directly.  self_seconds() gives each span's
// duration minus the part of its interval its children cover — the
// per-layer numbers the harness summarizes.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace szp::perf {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::string cat;  ///< the layer the span's self time is charged to
  Clock::time_point start;
  Clock::time_point end;
  std::int64_t parent = -1;  ///< index of the parent span, -1 for a root
  std::int64_t op = -1;      ///< op id, -1 outside any op
  /// Placed by the recorder rather than timed at its boundaries: the
  /// library reports stage durations but not start times, so stage spans
  /// are laid end to end inside their parent.
  bool synthetic = false;
  std::vector<std::pair<std::string, double>> args;
};

struct Counter {
  std::string name;
  Clock::time_point at;
  double value = 0.0;
  std::int64_t op = -1;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Open a span starting now; close it with end().  Returns its index.
  std::size_t begin(std::string name, std::string cat, std::int64_t parent, std::int64_t op);
  void end(std::size_t span);
  /// Record a span whose interval is already known.  Returns its index.
  std::size_t add(Span span);
  void counter(std::string name, double value, std::int64_t op);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span: duration minus the union of its children's intervals
  /// (clipped to the span), in seconds.  Never negative.
  [[nodiscard]] std::vector<double> self_seconds() const;

  /// Write every span (as "X" complete events) and counter (as "C" events)
  /// in the Chrome trace-event JSON format.  Throws on I/O failure.
  void write_chrome_json(const std::filesystem::path& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
};

/// Closes a Tracer span on scope exit; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string cat, std::int64_t parent,
             std::int64_t op)
      : tracer_(tracer),
        index_(tracer ? static_cast<std::int64_t>(
                            tracer->begin(std::move(name), std::move(cat), parent, op))
                      : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_) tracer_->end(static_cast<std::size_t>(index_));
  }

  /// Index of the open span (-1 when not tracing), for use as a parent.
  [[nodiscard]] std::int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  std::int64_t index_;
};

}  // namespace szp::perf
