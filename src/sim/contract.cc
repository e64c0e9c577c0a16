// szp::sim::contract — dynamic cross-validation of declared footprints.
//
// The prover (prove.cc) trusts the contract; this file makes the contract
// trustworthy: after every interval-tier launch, each block's *observed*
// footprint (the coalesced byte intervals the tracking views recorded) is
// checked for containment in the contract's evaluated footprint for that
// block.  An uncovered access means the contract under-declares — the
// static verdict is unsound for this kernel — and is reported as a
// ContractFinding through the same process-global report as races, so the
// ordinary SZP_SIM_CHECK=1 test suite catches stale contracts.
#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>
#include <vector>

#include "sim/check.hh"

namespace szp::sim::checked {

namespace {

using contract::Clause;
using contract::ClauseKind;

struct ERange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;  // half-open, elements
};

/// Append the ranges one clause declares for block b: a whole-buffer or
/// dynamic clause declares the buffer, a host sink nothing.
void clause_ranges(const Clause& cl, const contract::Geom& geom, std::int64_t b,
                   std::int64_t elems, std::vector<ERange>& out) {
  if (cl.kind == ClauseKind::kAll || cl.kind == ClauseKind::kDynamic) {
    out.push_back({0, elems});
    return;
  }
  contract::for_each_range(cl, geom, b, elems,
                           [&](std::int64_t lo, std::int64_t hi) { out.push_back({lo, hi}); });
}

/// Sort and coalesce (overlapping or adjacent ranges merge).
void normalize(std::vector<ERange>& v) {
  std::sort(v.begin(), v.end(), [](const ERange& a, const ERange& b) { return a.lo < b.lo; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (out > 0 && v[i].lo <= v[out - 1].hi) {
      v[out - 1].hi = std::max(v[out - 1].hi, v[i].hi);
    } else {
      v[out++] = v[i];
    }
  }
  v.resize(out);
}

/// Is [lo, hi) inside the normalized union `v`?
bool covered(const std::vector<ERange>& v, std::int64_t lo, std::int64_t hi) {
  const auto it = std::upper_bound(
      v.begin(), v.end(), lo, [](std::int64_t val, const ERange& r) { return val < r.lo; });
  if (it == v.begin()) return false;
  const ERange& r = *(it - 1);
  return r.lo <= lo && hi <= r.hi;
}

}  // namespace

std::string ContractFinding::to_string() const {
  std::ostringstream os;
  os << "CONTRACT-MISMATCH " << (is_write ? "write" : "read") << ": kernel '" << kernel
     << "', buffer '" << buffer << "', block " << block << ", observed elements [" << elem_lo
     << ", " << elem_hi << ") escape the declared footprint";
  return os.str();
}

namespace detail {

void validate_observed(const char* kernel, const contract::Contract& con,
                       const contract::Geom& geom, const std::vector<BufMeta>& bufs,
                       const std::vector<BlockLog>& logs) {
  constexpr std::size_t kMaxMismatchPerLaunch = 8;
  const std::size_t nb = bufs.size();

  // Clause lists per registered buffer (clauses naming nothing registered
  // are a prover concern, not a containment one).
  std::vector<std::vector<const Clause*>> by_buf(nb);
  for (const Clause& cl : con.clauses) {
    for (std::size_t i = 0; i < nb; ++i) {
      if (std::strcmp(cl.buf, bufs[i].name) == 0) {
        by_buf[i].push_back(&cl);
        break;
      }
    }
  }

  std::size_t reported = 0;
  // Covers are rebuilt lazily per (block, buffer): index 0 holds the read
  // cover, index 1 the write cover.
  std::vector<std::array<std::vector<ERange>, 2>> covers(nb);
  std::vector<bool> cover_valid(nb, false);

  for (std::size_t b = 0; b < logs.size(); ++b) {
    const BlockLog& log = logs[b];
    if (log.acc.empty()) continue;
    const auto block = static_cast<std::int64_t>(b);
    std::fill(cover_valid.begin(), cover_valid.end(), false);

    for (const TaggedInterval& t : log.acc) {
      const std::size_t bi = t.buf;
      if (!cover_valid[bi]) {
        covers[bi][0].clear();
        covers[bi][1].clear();
        const auto elems = static_cast<std::int64_t>(bufs[bi].elems);
        for (const Clause* cl : by_buf[bi]) {
          if (cl->access != contract::AccessKind::kWrite) {
            clause_ranges(*cl, geom, block, elems, covers[bi][0]);
          }
          if (cl->access != contract::AccessKind::kRead) {
            clause_ranges(*cl, geom, block, elems, covers[bi][1]);
          }
        }
        normalize(covers[bi][0]);
        normalize(covers[bi][1]);
        cover_valid[bi] = true;
      }
      const std::uint32_t eb = bufs[bi].elem_bytes;
      const auto lo = static_cast<std::int64_t>(t.lo / eb);
      const auto hi = static_cast<std::int64_t>((t.hi + eb - 1) / eb);
      if (hi <= lo) continue;
      if (covered(covers[bi][t.write ? 1 : 0], lo, hi)) continue;
      append_contract_finding({kernel, bufs[bi].name, b, static_cast<std::uint64_t>(lo),
                               static_cast<std::uint64_t>(hi), t.write});
      if (++reported >= kMaxMismatchPerLaunch) return;
    }
  }
}

}  // namespace detail

}  // namespace szp::sim::checked
