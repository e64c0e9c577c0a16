// szp::sim::contract — static footprint contracts for checked launches.
//
// A contract declares, per registered buffer, the element footprint one
// block of the grid may touch, as affine expressions over the block index
// (`b()` for linear launches, `bx()`/`by()`/`bz()` for launch_3d grids) and
// launch parameters (plain runtime integers folded into the coefficients):
//
//   chk::launch("tile_sum", tiles, chk::bufs(chk::in(in, "in"), chk::out(out, "out")),
//               ctr::contract(ctr::reads("in", ctr::b() * tile, tile).clamp(),
//                             ctr::writes("out", ctr::b(), 1)),
//               body);
//
// Clause repertoire (all offsets/lengths in *elements* of the buffer):
//   reads/writes/updates(buf, base, len)           one window per block
//     .strided(count, stride)                      `count` windows, `stride` apart
//     .clamp()                                     window intersected with [0, elems)
//   reads_box/writes_box/updates_box(...)          per-axis tile of a row-major
//                                                  nx*ny*nz field, clamped at the
//                                                  field edges (launch_3d grids)
//   reads_all/writes_all/updates_all(buf)          whole buffer, every block
//   reads_dyn/writes_dyn/updates_dyn(buf)          data-dependent footprint: the
//                                                  declared set is the whole
//                                                  buffer, and the prover will
//                                                  never prove disjointness for
//                                                  writes — dynamic checking
//                                                  remains the authority
//   reads_dyn/writes_dyn/updates_dyn(buf, bound)   same, but with an explicit
//                                                  worst-case element volume
//                                                  across the whole launch —
//                                                  the traffic analyzer
//                                                  (sim/traffic.hh) uses it as
//                                                  an honest upper bound, and
//                                                  observed traffic beyond it
//                                                  is a TrafficFinding
//   host_sink(what, bytes)                         the launch's output lives
//                                                  in host-owned heap state
//                                                  (bit writers, growing
//                                                  vectors) instead of a
//                                                  registered buffer; declares
//                                                  a worst-case *byte* volume
//                                                  so the traffic table still
//                                                  carries the store side
//
// The contract is consumed twice: the prover (sim/prove.hh) decides once per
// launch geometry whether every write family is cross-block disjoint and
// every unclamped window in-bounds, and the checked-launch interval tier
// cross-validates each block's *observed* footprint against the declared one
// (observed ⊆ declared), so an under-declared contract is caught dynamically
// by the ordinary test suite.
#pragma once

#include <cstdint>
#include <vector>

namespace szp::sim::contract {

// ---------------------------------------------------------------------------
// Affine terms over the block coordinates.
// ---------------------------------------------------------------------------

/// c + kb*b + kx*bx + ky*by + kz*bz, evaluated per block at launch time.
/// Coefficients are concrete (launch parameters are runtime constants by the
/// time the contract is built), so "symbolic" reasoning reduces to interval
/// and stride arithmetic over these five integers.
struct Term {
  std::int64_t c = 0;
  std::int64_t kb = 0;
  std::int64_t kx = 0;
  std::int64_t ky = 0;
  std::int64_t kz = 0;

  [[nodiscard]] constexpr bool uses_linear() const { return kb != 0; }
  [[nodiscard]] constexpr bool uses_coords() const { return kx != 0 || ky != 0 || kz != 0; }
  [[nodiscard]] constexpr bool constant() const { return !uses_linear() && !uses_coords(); }
};

[[nodiscard]] constexpr Term lit(std::int64_t v) { return {v, 0, 0, 0, 0}; }
[[nodiscard]] constexpr Term b() { return {0, 1, 0, 0, 0}; }
[[nodiscard]] constexpr Term bx() { return {0, 0, 1, 0, 0}; }
[[nodiscard]] constexpr Term by() { return {0, 0, 0, 1, 0}; }
[[nodiscard]] constexpr Term bz() { return {0, 0, 0, 0, 1}; }

[[nodiscard]] constexpr Term operator+(Term a, Term o) {
  return {a.c + o.c, a.kb + o.kb, a.kx + o.kx, a.ky + o.ky, a.kz + o.kz};
}
[[nodiscard]] constexpr Term operator-(Term a, Term o) {
  return {a.c - o.c, a.kb - o.kb, a.kx - o.kx, a.ky - o.ky, a.kz - o.kz};
}
[[nodiscard]] constexpr Term operator+(Term a, std::int64_t v) { return a + lit(v); }
[[nodiscard]] constexpr Term operator-(Term a, std::int64_t v) { return a - lit(v); }
[[nodiscard]] constexpr Term operator+(std::int64_t v, Term a) { return lit(v) + a; }
[[nodiscard]] constexpr Term operator*(Term a, std::int64_t s) {
  return {a.c * s, a.kb * s, a.kx * s, a.ky * s, a.kz * s};
}
[[nodiscard]] constexpr Term operator*(std::int64_t s, Term a) { return a * s; }

/// Evaluate at a concrete block.  `b` is the linear block index; the
/// coordinates are its launch_3d decomposition (all zero for linear grids).
[[nodiscard]] constexpr std::int64_t eval(Term t, std::int64_t b, std::int64_t x, std::int64_t y,
                                          std::int64_t z) {
  return t.c + t.kb * b + t.kx * x + t.ky * y + t.kz * z;
}

// ---------------------------------------------------------------------------
// Clauses.
// ---------------------------------------------------------------------------

enum class AccessKind : std::uint8_t {
  kRead,       ///< block only reads the footprint
  kWrite,      ///< block only writes the footprint
  kReadWrite,  ///< block reads and writes the footprint (inout / atomics)
};

enum class ClauseKind : std::uint8_t {
  kWindow,   ///< affine base + length (+ optional repeat count/stride)
  kBox,      ///< per-axis tile of a row-major nx*ny*nz field, edge-clamped
  kAll,      ///< whole buffer from every block
  kDynamic,  ///< data-dependent: declared as the whole buffer, never provable
  kHostSink,  ///< declared byte volume into host-owned output state (no buffer)
};

struct Clause {
  const char* buf = "?";
  ClauseKind kind = ClauseKind::kWindow;
  AccessKind access = AccessKind::kRead;

  // kWindow: `count` windows of `len` elements starting at base + i*stride.
  Term base;
  std::int64_t len = 0;
  std::int64_t count = 1;
  std::int64_t stride = 0;
  bool clamped = false;  ///< window intersected with [0, elems)

  // kBox: per-axis lows and spans over a row-major field of extents
  // nx*ny*nz (which must equal the buffer's registered element count).
  // Each axis is clamped to [0, n_axis).
  Term lo_x, lo_y, lo_z;
  std::int64_t span_x = 1, span_y = 1, span_z = 1;
  std::int64_t nx = 1, ny = 1, nz = 1;

  // kDynamic: worst-case element volume across the whole launch, known at
  // launch time (scan totals, nnz counts).  -1 means "no bound declared":
  // the whole buffer stands in as the upper bound.
  std::int64_t dyn_bound = -1;

  /// Repeat the window `count` times, `stride` elements apart (gap arrays,
  /// per-block column families).
  [[nodiscard]] constexpr Clause strided(std::int64_t n, std::int64_t step) const {
    Clause cl = *this;
    cl.count = n;
    cl.stride = step;
    return cl;
  }

  /// Intersect the window with [0, elems): edge blocks of a tiled sweep
  /// declare a short (or empty) tail instead of spilling past the buffer.
  [[nodiscard]] constexpr Clause clamp() const {
    Clause cl = *this;
    cl.clamped = true;
    return cl;
  }
};

[[nodiscard]] constexpr Clause window(AccessKind a, const char* buf, Term base,
                                      std::int64_t len) {
  Clause cl;
  cl.buf = buf;
  cl.kind = ClauseKind::kWindow;
  cl.access = a;
  cl.base = base;
  cl.len = len;
  return cl;
}

[[nodiscard]] constexpr Clause reads(const char* buf, Term base, std::int64_t len) {
  return window(AccessKind::kRead, buf, base, len);
}
[[nodiscard]] constexpr Clause writes(const char* buf, Term base, std::int64_t len) {
  return window(AccessKind::kWrite, buf, base, len);
}
[[nodiscard]] constexpr Clause updates(const char* buf, Term base, std::int64_t len) {
  return window(AccessKind::kReadWrite, buf, base, len);
}

[[nodiscard]] constexpr Clause box(AccessKind a, const char* buf, Term x0, std::int64_t sx,
                                   Term y0, std::int64_t sy, Term z0, std::int64_t sz,
                                   std::int64_t nx, std::int64_t ny, std::int64_t nz) {
  Clause cl;
  cl.buf = buf;
  cl.kind = ClauseKind::kBox;
  cl.access = a;
  cl.lo_x = x0;
  cl.lo_y = y0;
  cl.lo_z = z0;
  cl.span_x = sx;
  cl.span_y = sy;
  cl.span_z = sz;
  cl.nx = nx;
  cl.ny = ny;
  cl.nz = nz;
  return cl;
}

[[nodiscard]] constexpr Clause reads_box(const char* buf, Term x0, std::int64_t sx, Term y0,
                                         std::int64_t sy, Term z0, std::int64_t sz, std::int64_t nx,
                                         std::int64_t ny, std::int64_t nz) {
  return box(AccessKind::kRead, buf, x0, sx, y0, sy, z0, sz, nx, ny, nz);
}
[[nodiscard]] constexpr Clause writes_box(const char* buf, Term x0, std::int64_t sx, Term y0,
                                          std::int64_t sy, Term z0, std::int64_t sz,
                                          std::int64_t nx, std::int64_t ny, std::int64_t nz) {
  return box(AccessKind::kWrite, buf, x0, sx, y0, sy, z0, sz, nx, ny, nz);
}
[[nodiscard]] constexpr Clause updates_box(const char* buf, Term x0, std::int64_t sx, Term y0,
                                           std::int64_t sy, Term z0, std::int64_t sz,
                                           std::int64_t nx, std::int64_t ny, std::int64_t nz) {
  return box(AccessKind::kReadWrite, buf, x0, sx, y0, sy, z0, sz, nx, ny, nz);
}

[[nodiscard]] constexpr Clause whole(AccessKind a, ClauseKind k, const char* buf) {
  Clause cl;
  cl.buf = buf;
  cl.kind = k;
  cl.access = a;
  return cl;
}

[[nodiscard]] constexpr Clause reads_all(const char* buf) {
  return whole(AccessKind::kRead, ClauseKind::kAll, buf);
}
[[nodiscard]] constexpr Clause writes_all(const char* buf) {
  return whole(AccessKind::kWrite, ClauseKind::kAll, buf);
}
[[nodiscard]] constexpr Clause updates_all(const char* buf) {
  return whole(AccessKind::kReadWrite, ClauseKind::kAll, buf);
}

[[nodiscard]] constexpr Clause reads_dyn(const char* buf) {
  return whole(AccessKind::kRead, ClauseKind::kDynamic, buf);
}
[[nodiscard]] constexpr Clause writes_dyn(const char* buf) {
  return whole(AccessKind::kWrite, ClauseKind::kDynamic, buf);
}
[[nodiscard]] constexpr Clause updates_dyn(const char* buf) {
  return whole(AccessKind::kReadWrite, ClauseKind::kDynamic, buf);
}

/// Bounded dynamic clauses: the footprint is still data-dependent (the
/// prover keeps its hands off), but the call site knows a worst-case element
/// volume before launching — a scan total, an nnz count — and declares it so
/// the traffic analyzer gets an honest upper bound instead of a hole.
[[nodiscard]] constexpr Clause bounded_dyn(AccessKind a, const char* buf, std::int64_t bound) {
  Clause cl = whole(a, ClauseKind::kDynamic, buf);
  cl.dyn_bound = bound >= 0 ? bound : -1;
  return cl;
}
[[nodiscard]] constexpr Clause reads_dyn(const char* buf, std::int64_t bound) {
  return bounded_dyn(AccessKind::kRead, buf, bound);
}
[[nodiscard]] constexpr Clause writes_dyn(const char* buf, std::int64_t bound) {
  return bounded_dyn(AccessKind::kWrite, buf, bound);
}
[[nodiscard]] constexpr Clause updates_dyn(const char* buf, std::int64_t bound) {
  return bounded_dyn(AccessKind::kReadWrite, buf, bound);
}

/// Host-sink clause: the kernel's output is host-owned heap state (a serial
/// bit writer, a vector growing under an untrusted size header) rather than
/// a registered device buffer, so there is nothing for the prover to prove
/// or the containment checker to observe.  `bytes` declares the worst-case
/// byte volume the launch may emit; the traffic analyzer books it as a
/// dynamic contiguous store so the kernel's table row still carries its
/// write side instead of a coverage hole.
[[nodiscard]] constexpr Clause host_sink(const char* what, std::int64_t bytes) {
  Clause cl;
  cl.buf = what;
  cl.kind = ClauseKind::kHostSink;
  cl.access = AccessKind::kWrite;
  cl.dyn_bound = bytes >= 0 ? bytes : 0;
  return cl;
}

// ---------------------------------------------------------------------------
// Contract and launch geometry.
// ---------------------------------------------------------------------------

struct Contract {
  std::vector<Clause> clauses;
};

template <typename... C>
[[nodiscard]] Contract contract(C... cl) {
  return Contract{{cl...}};
}

/// A registered buffer as the prover, the traffic analyzer and the checker
/// see it: the name clauses refer to, the element count, the element size.
struct BufMeta {
  const char* name = "?";
  std::uint64_t elems = 0;
  std::uint32_t elem_bytes = 1;
};

/// Grid geometry a contract is evaluated against.  `gx*gy*gz == grid` marks
/// a coordinate-aware (launch_3d) grid; otherwise the grid is linear and
/// only `b()` terms are meaningful.
struct Geom {
  std::int64_t grid = 1;
  std::int64_t gx = 1, gy = 1, gz = 1;

  [[nodiscard]] constexpr bool coords() const { return gx * gy * gz == grid; }
};

/// Call f(lo, hi) for every element range [lo, hi) a kWindow or kBox clause
/// declares for block b (on a launch_3d grid, at its coordinates x fastest):
/// a clamped window cut to [0, elems), a box's axes cut to its field, empty
/// ranges skipped.  The other kinds declare no per-block ranges.  Both the
/// traffic analyzer and the containment check evaluate clauses through this
/// one walk.
template <typename F>
void for_each_range(const Clause& cl, const Geom& geom, std::int64_t b, std::int64_t elems,
                    F&& f) {
  std::int64_t bx = 0, by = 0, bz = 0;
  if (geom.coords()) {
    bx = b % geom.gx;
    by = (b / geom.gx) % geom.gy;
    bz = b / (geom.gx * geom.gy);
  }
  if (cl.kind == ClauseKind::kWindow) {
    const std::int64_t base = eval(cl.base, b, bx, by, bz);
    for (std::int64_t i = 0; i < cl.count; ++i) {
      std::int64_t lo = base + i * cl.stride;
      std::int64_t hi = lo + cl.len;
      if (cl.clamped) {
        lo = lo < 0 ? 0 : lo;
        hi = hi > elems ? elems : hi;
      }
      if (hi > lo) f(lo, hi);
    }
  } else if (cl.kind == ClauseKind::kBox) {
    const auto cut = [](std::int64_t v, std::int64_t n) { return v < 0 ? 0 : v > n ? n : v; };
    const std::int64_t x = eval(cl.lo_x, b, bx, by, bz);
    const std::int64_t y = eval(cl.lo_y, b, bx, by, bz);
    const std::int64_t z = eval(cl.lo_z, b, bx, by, bz);
    const std::int64_t x0 = cut(x, cl.nx), x1 = cut(x + cl.span_x, cl.nx);
    const std::int64_t y0 = cut(y, cl.ny), y1 = cut(y + cl.span_y, cl.ny);
    const std::int64_t z0 = cut(z, cl.nz), z1 = cut(z + cl.span_z, cl.nz);
    if (x1 <= x0) return;
    for (std::int64_t zz = z0; zz < z1; ++zz) {
      for (std::int64_t yy = y0; yy < y1; ++yy) {
        const std::int64_t row = (zz * cl.ny + yy) * cl.nx;
        f(row + x0, row + x1);
      }
    }
  }
}

}  // namespace szp::sim::contract
