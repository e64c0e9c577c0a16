#include "core/archive.hh"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/checksum.hh"
#include "core/error.hh"

namespace szp::archive {

void write_header(ByteWriter& w, const ArchiveHeader& h) {
  w.put(kMagic);
  // Emit the lowest format version that can express the workflow tag, so
  // archives using the original four workflows stay byte-identical to
  // pre-v3 writers.
  const bool legacy = static_cast<std::uint8_t>(h.workflow) <=
                      static_cast<std::uint8_t>(Workflow::kRansOneLane);
  w.put(legacy ? kVersion : kVersionCodec);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(h.extents.rank));
  w.put<std::uint8_t>(static_cast<std::uint8_t>(h.workflow));
  w.put<std::uint8_t>(static_cast<std::uint8_t>(h.dtype));
  w.put<std::uint64_t>(h.extents.nx);
  w.put<std::uint64_t>(h.extents.ny);
  w.put<std::uint64_t>(h.extents.nz);
  w.put<double>(h.eb_abs);
  w.put<std::uint32_t>(h.capacity);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(h.predictor));
}

DType check_shape(const Extents& ext, std::uint8_t dtype_tag) {
  if (ext.rank < 1 || ext.rank > 3) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "rank " + std::to_string(ext.rank) + " outside [1, 3]");
  }
  const auto dtype = static_cast<DType>(dtype_tag);
  if (dtype != DType::kFloat32 && dtype != DType::kFloat64) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "unknown element-type tag " + std::to_string(dtype_tag));
  }
  if (ext.nx == 0 || ext.ny == 0 || ext.nz == 0 || (ext.rank < 2 && ext.ny != 1) ||
      (ext.rank < 3 && ext.nz != 1)) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "extents inconsistent with the declared rank");
  }
  std::uint64_t count = 0;
  if (__builtin_mul_overflow(ext.nx, ext.ny, &count) ||
      __builtin_mul_overflow(count, ext.nz, &count)) {
    throw DecodeError(DecodeErrorKind::kLengthOverflow, "header",
                      "extents overflow the element count");
  }
  return dtype;
}

ArchiveHeader read_header(ByteReader& r) {
  r.set_segment("header");
  if (r.get<std::uint32_t>() != kMagic) {
    throw DecodeError(DecodeErrorKind::kBadMagic, "header", "not an szp archive");
  }
  const auto version = r.get<std::uint16_t>();
  if (version != kVersion && version != kVersionCodec) {
    throw DecodeError(DecodeErrorKind::kBadVersion, "header",
                      "archive version " + std::to_string(version) + ", expected " +
                          std::to_string(kVersion) + " or " + std::to_string(kVersionCodec));
  }
  ArchiveHeader h;
  h.extents.rank = r.get<std::uint8_t>();
  const auto wf = r.get<std::uint8_t>();
  const auto dt = r.get<std::uint8_t>();
  h.extents.nx = r.get<std::uint64_t>();
  h.extents.ny = r.get<std::uint64_t>();
  h.extents.nz = r.get<std::uint64_t>();
  h.eb_abs = r.get<double>();
  h.capacity = r.get<std::uint32_t>();
  const auto pred = r.get<std::uint8_t>();

  // v2 can only carry the original four workflow tags; v3 extends the slot
  // to the LZ codec family and eight-lane rANS.  Anything else is a bad
  // codec id.
  const auto max_wf = version == kVersion ? static_cast<std::uint8_t>(Workflow::kRansOneLane)
                                          : static_cast<std::uint8_t>(Workflow::kRans);
  if (wf > max_wf || static_cast<Workflow>(wf) == Workflow::kAuto) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "unknown workflow tag " + std::to_string(wf) + " for archive version " +
                          std::to_string(version));
  }
  h.workflow = static_cast<Workflow>(wf);
  h.dtype = check_shape(h.extents, dt);
  if (!(h.eb_abs > 0.0) || !std::isfinite(h.eb_abs)) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "error bound is not a finite positive value");
  }
  if (h.capacity < 2) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "quantizer capacity " + std::to_string(h.capacity) + " below 2");
  }
  if (pred > static_cast<std::uint8_t>(PredictorKind::kInterpolation)) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "unknown predictor tag " + std::to_string(pred));
  }
  h.predictor = static_cast<PredictorKind>(pred);
  return h;
}

void read_outliers(ByteReader& r, std::size_t n, sim::SparseVector<qdiff_t>& out) {
  r.set_segment("outliers");
  r.get_vector_into(out.indices);
  r.get_vector_into(out.values);
  if (out.indices.size() != out.values.size()) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "outliers",
                      "index/value stream size mismatch (" + std::to_string(out.indices.size()) +
                          " vs " + std::to_string(out.values.size()) + ")");
  }
  std::uint64_t next = 0;  // the smallest index the next entry may take
  for (const auto idx : out.indices) {
    if (idx >= n) {
      throw DecodeError(DecodeErrorKind::kCorruptStream, "outliers",
                        "outlier index " + std::to_string(idx) + " outside the " +
                            std::to_string(n) + "-element grid");
    }
    if (idx < next) {
      throw DecodeError(DecodeErrorKind::kCorruptStream, "outliers",
                        "outlier index " + std::to_string(idx) +
                            " does not follow the one before it");
    }
    next = idx + 1;
  }
}

std::span<const std::uint8_t> checked_body(std::span<const std::uint8_t> archive) {
  if (archive.size() < kCrcBytes) {
    throw DecodeError(DecodeErrorKind::kTruncated, "archive",
                      "too small to hold the trailing checksum");
  }
  const auto body = archive.first(archive.size() - kCrcBytes);
  std::uint32_t stored = 0;
  std::memcpy(&stored, archive.data() + body.size(), kCrcBytes);
  if (crc32(body) != stored) {
    throw DecodeError(DecodeErrorKind::kChecksumMismatch, "archive",
                      "trailing CRC-32 does not match the archive body");
  }
  return body;
}

void seal_crc32(std::span<std::uint8_t> sealed) {
  if (sealed.size() < kCrcBytes) throw std::logic_error("seal_crc32: no room for the CRC tail");
  const std::size_t body = sealed.size() - kCrcBytes;
  ByteWriter(sealed.last(kCrcBytes)).put(crc32(sealed.first(body)));
}

}  // namespace szp::archive
