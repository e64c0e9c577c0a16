// Compile-only check that a checked launch cannot omit its footprint
// contract.  ctest compiles this file twice (tests/CMakeLists.txt): with
// SZP_WITH_CONTRACT defined it must compile; without it each call below
// names no contract and the compiler must report "no matching function for
// call to 'launch...'".
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/check.hh"
#include "sim/contract.hh"
#include "sim/launch.hh"

namespace chk = szp::sim::checked;
namespace ctr = szp::sim::contract;

void fill(std::vector<int>& out) {
  chk::launch("fill", out.size(), chk::bufs(chk::out(std::span<int>(out), "out")),
#ifdef SZP_WITH_CONTRACT
              ctr::contract(ctr::writes("out", ctr::b(), 1)),
#endif
              [](std::size_t b, const auto& v) { v[b] = static_cast<int>(b); });
}

void fill_3d(std::vector<int>& out) {
  chk::launch_3d("fill_3d", szp::sim::Dim3{2, 2, 2},
                 chk::bufs(chk::out(std::span<int>(out), "out")),
#ifdef SZP_WITH_CONTRACT
                 ctr::contract(ctr::writes_box("out", ctr::bx(), 1, ctr::by(), 1, ctr::bz(), 1,
                                               2, 2, 2)),
#endif
                 [](std::uint32_t x, std::uint32_t y, std::uint32_t z, const auto& v) {
                   v[(z * 2 + y) * 2 + x] = 1;
                 });
}
