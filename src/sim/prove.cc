// szp::sim::contract — prover implementation and kernel verdict registry.
//
// The prover works in a deliberately small affine domain (see prove.hh):
// every decision below is a direct interval or stride comparison over the
// concrete coefficients of the contract's terms.  When a footprint is
// outside the domain it accumulates a human-readable reason instead of
// guessing — `szp analyze` surfaces those reasons.
#include "sim/prove.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>

namespace szp::sim::contract {

namespace {

// ---------------------------------------------------------------------------
// Interval arithmetic over affine terms.
// ---------------------------------------------------------------------------

std::int64_t axis_min(std::int64_t k, std::int64_t extent) { return k < 0 ? k * (extent - 1) : 0; }
std::int64_t axis_max(std::int64_t k, std::int64_t extent) { return k > 0 ? k * (extent - 1) : 0; }

std::int64_t term_min(const Term& t, const Geom& g) {
  std::int64_t v = t.c + axis_min(t.kb, g.grid);
  if (g.coords()) {
    v += axis_min(t.kx, g.gx) + axis_min(t.ky, g.gy) + axis_min(t.kz, g.gz);
  }
  return v;
}

std::int64_t term_max(const Term& t, const Geom& g) {
  std::int64_t v = t.c + axis_max(t.kb, g.grid);
  if (g.coords()) {
    v += axis_max(t.kx, g.gx) + axis_max(t.ky, g.gy) + axis_max(t.kz, g.gz);
  }
  return v;
}

/// Total extent of one block's windows: base .. base + span.
std::int64_t window_span(const Clause& cl) { return (cl.count - 1) * cl.stride + cl.len; }

/// Conservative element range a clause may touch across the whole grid.
struct Range {
  std::int64_t lo = 0;
  std::int64_t hi = 0;  // half-open
};

Range global_range(const Clause& cl, const Geom& g, std::int64_t elems) {
  switch (cl.kind) {
    case ClauseKind::kWindow: {
      Range r{term_min(cl.base, g), term_max(cl.base, g) + window_span(cl)};
      if (cl.clamped) {
        r.lo = std::max<std::int64_t>(r.lo, 0);
        r.hi = std::min(r.hi, elems);
      }
      return r;
    }
    case ClauseKind::kBox:
    case ClauseKind::kAll:
    case ClauseKind::kDynamic:
    case ClauseKind::kHostSink:
      return {0, elems};
  }
  return {0, elems};
}

// ---------------------------------------------------------------------------
// Proof obligations.
// ---------------------------------------------------------------------------

bool is_write(const Clause& cl) { return cl.access != AccessKind::kRead; }

void push_reason(std::vector<std::string>& out, const Clause& cl, const std::string& why) {
  out.push_back(std::string(cl.buf) + ": " + why);
}

/// Structural validity of one clause under the launch geometry.  Returns
/// false (with a reason) when the clause is outside the affine domain.
bool clause_well_formed(const Clause& cl, const Geom& g, std::int64_t elems,
                        std::vector<std::string>& reasons) {
  if (cl.kind == ClauseKind::kAll || cl.kind == ClauseKind::kDynamic) return true;
  if (cl.kind == ClauseKind::kWindow) {
    if (cl.len < 1 || cl.count < 1 || cl.stride < 0) {
      push_reason(reasons, cl, "malformed window (len < 1, count < 1, or stride < 0)");
      return false;
    }
    if (cl.base.uses_linear() && cl.base.uses_coords()) {
      push_reason(reasons, cl, "window mixes b() and bx()/by()/bz() terms");
      return false;
    }
    if (cl.base.uses_coords() && !g.coords()) {
      push_reason(reasons, cl, "coordinate terms on a linear (non-launch_3d) grid");
      return false;
    }
    return true;
  }
  // kBox.
  if (!g.coords()) {
    push_reason(reasons, cl, "box footprint on a linear (non-launch_3d) grid");
    return false;
  }
  if (cl.span_x < 1 || cl.span_y < 1 || cl.span_z < 1 || cl.nx < 1 || cl.ny < 1 || cl.nz < 1) {
    push_reason(reasons, cl, "malformed box (span or extent < 1)");
    return false;
  }
  if (cl.nx * cl.ny * cl.nz != elems) {
    push_reason(reasons, cl, "box extents do not cover the registered buffer");
    return false;
  }
  const bool axes_clean = cl.lo_x.kb == 0 && cl.lo_x.ky == 0 && cl.lo_x.kz == 0 &&
                          cl.lo_y.kb == 0 && cl.lo_y.kx == 0 && cl.lo_y.kz == 0 &&
                          cl.lo_z.kb == 0 && cl.lo_z.kx == 0 && cl.lo_z.ky == 0;
  if (!axes_clean) {
    push_reason(reasons, cl, "box axis term uses a foreign block coordinate");
    return false;
  }
  return true;
}

/// Bounds: unclamped windows must stay inside [0, elems) for every block.
/// Clamped windows, boxes, and whole-buffer clauses are in-bounds by
/// construction (and the clamp itself is enforced dynamically by the
/// observed ⊆ declared cross-validation).
void check_bounds(const Clause& cl, const Geom& g, std::int64_t elems,
                  std::vector<std::string>& reasons) {
  if (cl.kind != ClauseKind::kWindow || cl.clamped) return;
  const std::int64_t lo = term_min(cl.base, g);
  const std::int64_t hi = term_max(cl.base, g) + window_span(cl);
  if (lo < 0 || hi > elems) {
    std::ostringstream os;
    os << "window may reach [" << lo << ", " << hi << ") outside [0, " << elems << ")";
    push_reason(reasons, cl, os.str());
  }
}

/// Cross-block self-disjointness of one window/box family: no two distinct
/// blocks' instances may overlap.  `span` lets callers widen the per-block
/// extent when merging a same-shape read/write pair (halo detection).
bool family_disjoint(const Clause& cl, const Geom& g, std::int64_t span,
                     std::string* why) {
  if (g.grid <= 1) return true;
  if (cl.kind == ClauseKind::kBox) {
    // Boxes of distinct blocks are disjoint if every axis the grid actually
    // varies separates neighbouring blocks by at least the axis span: any
    // two distinct blocks differ in some such axis.
    struct Axis {
      std::int64_t k, g, span;
      const char* name;
    };
    const Axis axes[3] = {{cl.lo_x.kx, g.gx, cl.span_x, "x"},
                          {cl.lo_y.ky, g.gy, cl.span_y, "y"},
                          {cl.lo_z.kz, g.gz, cl.span_z, "z"}};
    for (const Axis& a : axes) {
      if (a.g <= 1) continue;
      if (std::abs(a.k) < a.span) {
        std::ostringstream os;
        os << "box " << a.name << "-stride " << std::abs(a.k) << " < span " << a.span;
        *why = os.str();
        return false;
      }
    }
    return true;
  }
  // Window.
  const Term& t = cl.base;
  if (t.uses_linear()) {
    if (std::abs(t.kb) >= span) return true;
    std::ostringstream os;
    os << "window stride " << std::abs(t.kb) << " < span " << span;
    *why = os.str();
    return false;
  }
  if (t.uses_coords()) {
    // Mixed-radix separation: order the varying axes by coefficient and
    // require each level to clear the cumulative reach of the levels below
    // plus the window span (lexicographic argument over the top axis).
    struct Axis {
      std::int64_t k, g;
    };
    std::vector<Axis> axes;
    if (g.gx > 1) axes.push_back({t.kx, g.gx});
    if (g.gy > 1) axes.push_back({t.ky, g.gy});
    if (g.gz > 1) axes.push_back({t.kz, g.gz});
    for (const Axis& a : axes) {
      if (a.k < 0) {
        *why = "negative coordinate stride";
        return false;
      }
    }
    std::sort(axes.begin(), axes.end(), [](const Axis& a, const Axis& b) { return a.k < b.k; });
    std::int64_t reach = 0;
    for (const Axis& a : axes) {
      if (a.k < reach + span) {
        std::ostringstream os;
        os << "coordinate stride " << a.k << " < reach " << reach << " + span " << span;
        *why = os.str();
        return false;
      }
      reach += a.k * (a.g - 1);
    }
    return true;
  }
  *why = "identical window from every block";
  return false;
}

bool same_coeffs(const Term& a, const Term& o) {
  return a.kb == o.kb && a.kx == o.kx && a.ky == o.ky && a.kz == o.kz;
}

}  // namespace

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kProved:
      return "proved";
    case Verdict::kUnproved:
      return "unproved-fallback-dynamic";
  }
  return "?";
}

ProveResult prove(const Contract& con, const Geom& geom, const std::vector<BufMeta>& bufs) {
  ProveResult res;
  auto& reasons = res.reasons;

  const auto extent_of = [&](const char* name) -> const BufMeta* {
    for (const BufMeta& e : bufs) {
      if (std::strcmp(e.name, name) == 0) return &e;
    }
    return nullptr;
  };

  // Structural validity and bounds, clause by clause (declaration order so
  // the reasons are deterministic).
  std::vector<bool> ok(con.clauses.size(), false);
  for (std::size_t i = 0; i < con.clauses.size(); ++i) {
    const Clause& cl = con.clauses[i];
    // Host sinks are traffic declarations, not footprints: no buffer to
    // prove anything about, and nothing the disjointness pass could touch.
    if (cl.kind == ClauseKind::kHostSink) continue;
    const BufMeta* e = extent_of(cl.buf);
    if (e == nullptr) {
      push_reason(reasons, cl, "names no registered buffer");
      continue;
    }
    const auto elems = static_cast<std::int64_t>(e->elems);
    if (!clause_well_formed(cl, geom, elems, reasons)) continue;
    ok[i] = true;
    check_bounds(cl, geom, elems, reasons);
  }

  // Disjointness: every buffer carrying a write-access clause must have all
  // its (write, write) and (write, read) clause pairs cross-block disjoint.
  if (geom.grid > 1) {
    for (std::size_t i = 0; i < con.clauses.size(); ++i) {
      const Clause& w = con.clauses[i];
      if (!ok[i] || !is_write(w)) continue;
      const BufMeta* e = extent_of(w.buf);
      const auto elems = static_cast<std::int64_t>(e->elems);

      if (w.kind == ClauseKind::kAll) {
        push_reason(reasons, w, "whole-buffer write from every block");
        continue;
      }
      if (w.kind == ClauseKind::kDynamic) {
        push_reason(reasons, w, "data-dependent write footprint");
        continue;
      }

      std::string why;
      if (!family_disjoint(w, geom, w.kind == ClauseKind::kWindow ? window_span(w) : 0, &why)) {
        push_reason(reasons, w, why);
        continue;
      }

      // Pairs: this write against every other clause of the same buffer
      // (later writes, and reads in either direction).
      for (std::size_t j = 0; j < con.clauses.size(); ++j) {
        if (j == i || !ok[j]) continue;
        const Clause& o = con.clauses[j];
        if (std::strcmp(o.buf, w.buf) != 0) continue;
        if (is_write(o) && j < i) continue;  // (write, write) pairs once
        if (o.kind == ClauseKind::kAll || o.kind == ClauseKind::kDynamic) {
          push_reason(reasons, w, is_write(o) ? "overlaps a whole-buffer write"
                                              : "read by every block (whole buffer)");
          continue;
        }
        if (w.kind == ClauseKind::kWindow && o.kind == ClauseKind::kWindow &&
            same_coeffs(w.base, o.base)) {
          // Same per-block placement: merge into one family spanning both
          // clauses' windows.  A halo read over a written buffer widens the
          // merged span past the stride and correctly fails here.
          const std::int64_t lo = std::min(w.base.c, o.base.c);
          const std::int64_t hi =
              std::max(w.base.c + window_span(w), o.base.c + window_span(o));
          Clause merged = w;
          merged.base.c = lo;
          if (!family_disjoint(merged, geom, hi - lo, &why)) {
            push_reason(reasons, w, "vs '" + std::string(o.buf) + "' companion clause: " + why);
          }
          continue;
        }
        if (w.kind == ClauseKind::kBox && o.kind == ClauseKind::kBox &&
            same_coeffs(w.lo_x, o.lo_x) && same_coeffs(w.lo_y, o.lo_y) &&
            same_coeffs(w.lo_z, o.lo_z) && w.lo_x.c == o.lo_x.c && w.lo_y.c == o.lo_y.c &&
            w.lo_z.c == o.lo_z.c) {
          // Same anchor: the wider of the two spans bounds both.
          Clause merged = w;
          merged.span_x = std::max(w.span_x, o.span_x);
          merged.span_y = std::max(w.span_y, o.span_y);
          merged.span_z = std::max(w.span_z, o.span_z);
          if (!family_disjoint(merged, geom, 0, &why)) {
            push_reason(reasons, w, "vs companion box clause: " + why);
          }
          continue;
        }
        // Different families: accept only when their global ranges cannot
        // meet at all.
        const Range rw = global_range(w, geom, elems);
        const Range ro = global_range(o, geom, elems);
        if (rw.hi <= ro.lo || ro.hi <= rw.lo) continue;
        push_reason(reasons, w, "overlapping footprint families on one buffer");
      }
    }
  }

  res.verdict = reasons.empty() ? Verdict::kProved : Verdict::kUnproved;
  return res;
}

// ---------------------------------------------------------------------------
// Kernel verdict registry.
// ---------------------------------------------------------------------------

namespace {

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, KernelVerdict>& registry() {
  static std::map<std::string, KernelVerdict> r;
  return r;
}

}  // namespace

void note_launch(const char* kernel, const ProveResult& result) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  KernelVerdict& e = registry()[kernel];
  if (e.launches == 0) e.kernel = kernel;
  if (e.launches == 0 || !result.proved()) e.verdict = result.verdict;
  ++e.launches;
  if (e.reason.empty() && !result.reasons.empty()) e.reason = result.reasons.front();
}

std::vector<KernelVerdict> registry_snapshot() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<KernelVerdict> out;
  out.reserve(registry().size());
  for (const auto& [_, e] : registry()) out.push_back(e);  // map order: sorted by name
  return out;
}

void reset_registry() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  registry().clear();
}

std::string verdict_table_text() {
  const std::vector<KernelVerdict> all = registry_snapshot();
  std::size_t proved = 0;
  std::size_t width = 0;
  for (const KernelVerdict& e : all) {
    width = std::max(width, e.kernel.size());
    if (e.verdict == Verdict::kProved) ++proved;
  }
  std::ostringstream os;
  os << "contract-analyze: " << all.size() << " kernel(s): " << proved << " proved, "
     << all.size() - proved << " unproved-fallback-dynamic\n";
  for (const KernelVerdict& e : all) {
    os << "  " << e.kernel << std::string(width - e.kernel.size() + 2, ' ')
       << verdict_name(e.verdict);
    if (!e.reason.empty()) os << "  (" << e.reason << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace szp::sim::contract
