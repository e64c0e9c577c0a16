#include "trace.hh"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace szp::perf {

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::size_t Tracer::begin(std::string name, std::string cat, std::int64_t parent,
                          std::int64_t op) {
  const auto now = Clock::now();
  return add(Span{std::move(name), std::move(cat), now, now, parent, op, false, {}});
}

void Tracer::end(std::size_t span) { spans_.at(span).end = Clock::now(); }

std::size_t Tracer::add(Span span) {
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void Tracer::counter(std::string name, double value, std::int64_t op) {
  counters_.push_back({std::move(name), Clock::now(), value, op});
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t p = spans_[i].parent;
    if (p >= 0) children.at(static_cast<std::size_t>(p)).push_back(i);
  }
  std::vector<double> self(spans_.size(), 0.0);
  std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    covered.clear();
    for (const std::size_t c : children[i]) {
      const auto lo = std::max(spans_[c].start, s.start);
      const auto hi = std::min(spans_[c].end, s.end);
      if (lo < hi) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double busy = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [lo, hi] : covered) {
      const auto from = std::max(lo, reach);
      if (hi > from) {
        busy += seconds_between(from, hi);
        reach = hi;
      }
    }
    self[i] = std::max(0.0, seconds_between(s.start, s.end) - busy);
  }
  return self;
}

void Tracer::write_chrome_json(const std::filesystem::path& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("trace: cannot open " + path.string());
  const auto us = [&](Clock::time_point t) { return seconds_between(origin_, t) * 1e6; };
  f.precision(12);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) f << ",\n";
    first = false;
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    sep();
    f << "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"" << escaped(s.name) << "\",\"cat\":\""
      << escaped(s.cat) << "\",\"ts\":" << us(s.start)
      << ",\"dur\":" << seconds_between(s.start, s.end) * 1e6 << ",\"args\":{\"id\":" << i
      << ",\"parent\":" << s.parent << ",\"op\":" << s.op;
    if (s.synthetic) f << ",\"synthetic\":true";
    for (const auto& [key, value] : s.args) f << ",\"" << escaped(key) << "\":" << value;
    f << "}}";
  }
  for (const Counter& c : counters_) {
    sep();
    f << "{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"name\":\"" << escaped(c.name)
      << "\",\"ts\":" << us(c.at) << ",\"args\":{\"value\":" << c.value << "}}";
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("trace: write failed for " + path.string());
}

}  // namespace szp::perf
