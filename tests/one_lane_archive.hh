// Test helper: the one-lane rANS archive (Workflow tag 3, archive format
// v2) holding what an eight-lane kRans archive holds.  Tag 3 is decode-only,
// so tests that keep its decoder covered, and pin its bytes, build its
// archives this way: the header with its version and tag set back, the same
// predictor aux and outliers, and the rANS stream re-encoded at one lane.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/archive.hh"
#include "core/pipeline/stage.hh"
#include "core/rans.hh"
#include "core/serialize.hh"
#include "core/workspace.hh"

namespace szp::test {

inline std::vector<std::uint8_t> one_lane_archive(std::span<const std::uint8_t> eight_lane) {
  ByteReader r(archive::checked_body(eight_lane));
  const archive::ArchiveHeader h = archive::read_header(r);
  if (h.workflow != Workflow::kRans) {
    throw std::invalid_argument("one_lane_archive: not an eight-lane rANS archive");
  }
  Workspace ws;
  pipeline::predict_stage(h.predictor).read_aux(r, ws);
  r.get_vector_into(ws.product.outliers.indices);
  r.get_vector_into(ws.product.outliers.values);
  const std::size_t prefix = r.position();

  const RansModel model = RansModel::deserialize(r);
  const auto count = r.get<std::uint64_t>();
  const auto stream = rans_encode(rans_decode(r.get_bytes(), count, model, kRansLanes), model, 1);
  const auto section = [&](ByteWriter& w) {
    model.serialize(w);
    w.put<std::uint64_t>(count);
    w.put_vector(stream);
  };
  std::vector<std::uint8_t> out(prefix + counted_size(section) + archive::kCrcBytes);
  std::copy_n(eight_lane.begin(), prefix, out.begin());
  out[4] = static_cast<std::uint8_t>(archive::kVersion);  // low byte of the u16 version
  out[7] = static_cast<std::uint8_t>(Workflow::kRansOneLane);
  ByteWriter w(std::span<std::uint8_t>(out).first(out.size() - archive::kCrcBytes).subspan(prefix));
  section(w);
  archive::seal_crc32(out);
  return out;
}

}  // namespace szp::test
