#include "core/bundle.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/archive.hh"
#include "core/checksum.hh"
#include "core/error.hh"
#include "core/serialize.hh"

namespace szp {

namespace {
constexpr std::uint32_t kMagic = 0x424E5A53;  // "SZNB"
constexpr std::uint16_t kVersion = 2;  // v2 added per-entry CRC-32; v1 still readable

std::uint32_t entry_crc(const std::string& name, std::span<const std::uint8_t> archive) {
  auto state = crc32_init();
  state = crc32_update(
      state, {reinterpret_cast<const std::uint8_t*>(name.data()), name.size()});
  state = crc32_update(state, archive);
  return crc32_final(state);
}

/// Whole-blob CRC check; returns the body span (blob minus trailer).
std::span<const std::uint8_t> split_body(std::span<const std::uint8_t> bytes, bool* crc_ok) {
  if (bytes.size() < 4) {
    throw DecodeError(DecodeErrorKind::kTruncated, "bundle",
                      "blob too small to hold the trailing checksum");
  }
  const auto body = bytes.subspan(0, bytes.size() - 4);
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - 4, 4);
  *crc_ok = crc32(body) == stored;
  return body;
}

struct BundleHeader {
  std::uint16_t version;
  std::uint64_t count;
};

BundleHeader read_header(ByteReader& r) {
  r.set_segment("header");
  if (r.get<std::uint32_t>() != kMagic) {
    throw DecodeError(DecodeErrorKind::kBadMagic, "header", "not an SZNB bundle");
  }
  BundleHeader h{};
  h.version = r.get<std::uint16_t>();
  if (h.version < 1 || h.version > kVersion) {
    throw DecodeError(DecodeErrorKind::kBadVersion, "header",
                      "bundle version " + std::to_string(h.version) + ", this reader handles 1-" +
                          std::to_string(kVersion));
  }
  h.count = r.get<std::uint64_t>();
  // Each entry is at least two u64 length prefixes (plus a CRC in v2).
  if (h.count > r.remaining() / 16) {
    throw DecodeError(DecodeErrorKind::kLengthOverflow, "header",
                      "entry count " + std::to_string(h.count) + " exceeds what " +
                          std::to_string(r.remaining()) + " remaining bytes can hold");
  }
  return h;
}

void validate_name(const std::string& name, const Bundle& b) {
  if (name.empty() || name.size() > 4096) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "name index",
                      "entry name empty or over 4096 bytes");
  }
  if (b.contains(name)) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "name index",
                      "duplicate field name '" + name + "'");
  }
}
}  // namespace

void Bundle::add(std::string name, std::vector<std::uint8_t> archive) {
  if (name.empty() || name.size() > 4096) {
    throw std::invalid_argument("Bundle::add: name must be non-empty and short");
  }
  if (contains(name)) {
    throw std::invalid_argument("Bundle::add: duplicate field name '" + name + "'");
  }
  names_.push_back(std::move(name));
  archives_.push_back(std::move(archive));
}

bool Bundle::contains(const std::string& name) const {
  return std::find(names_.begin(), names_.end(), name) != names_.end();
}

std::vector<Bundle::Entry> Bundle::entries() const {
  std::vector<Entry> out;
  out.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out.push_back({names_[i], archives_[i].size()});
  }
  return out;
}

const std::vector<std::uint8_t>& Bundle::archive(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) {
    throw std::out_of_range("Bundle: no field named '" + name + "'");
  }
  return archives_[static_cast<std::size_t>(it - names_.begin())];
}

std::vector<std::uint8_t> Bundle::serialize() const {
  std::vector<std::uint32_t> crcs;
  crcs.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    crcs.push_back(entry_crc(names_[i], archives_[i]));
  }
  const auto body = [&](ByteWriter& w) {
    w.put(kMagic);
    w.put(kVersion);
    w.put<std::uint64_t>(names_.size());
    for (std::size_t i = 0; i < names_.size(); ++i) {
      w.put_span(std::span<const char>(names_[i].data(), names_[i].size()));
      w.put_vector(archives_[i]);
      w.put(crcs[i]);
    }
  };
  // One allocation at the exact size, with the container CRC in its tail.
  std::vector<std::uint8_t> bytes(counted_size(body) + archive::kCrcBytes);
  ByteWriter w(std::span<std::uint8_t>(bytes).first(bytes.size() - archive::kCrcBytes));
  body(w);
  archive::seal_crc32(bytes);
  return bytes;
}

Bundle Bundle::deserialize(std::span<const std::uint8_t> bytes) {
  return decode_guard("bundle", [&] {
    bool crc_ok = false;
    const auto body = split_body(bytes, &crc_ok);
    if (!crc_ok) {
      throw DecodeError(DecodeErrorKind::kChecksumMismatch, "bundle",
                        "trailing CRC-32 does not match the bundle body");
    }
    ByteReader r(body);
    const BundleHeader h = read_header(r);
    Bundle b;
    for (std::uint64_t i = 0; i < h.count; ++i) {
      r.set_segment("name index");
      const auto name_bytes = r.get_vector<char>();
      std::string name(name_bytes.begin(), name_bytes.end());
      r.set_segment("entry payload");
      auto archive = r.get_vector<std::uint8_t>();
      if (h.version >= 2 && r.get<std::uint32_t>() != entry_crc(name, archive)) {
        throw DecodeError(DecodeErrorKind::kChecksumMismatch, "entry payload",
                          "per-entry CRC-32 mismatch on entry " + std::to_string(i));
      }
      validate_name(name, b);
      b.add(std::move(name), std::move(archive));
    }
    return b;
  });
}

BundleSalvage Bundle::deserialize_tolerant(std::span<const std::uint8_t> bytes) {
  return decode_guard("bundle", [&] {
    BundleSalvage res;
    const auto body = split_body(bytes, &res.container_crc_ok);
    ByteReader r(body);
    const BundleHeader h = read_header(r);
    for (std::uint64_t i = 0; i < h.count; ++i) {
      const std::string fallback = "entry #" + std::to_string(i);
      try {
        r.set_segment("name index");
        const auto name_bytes = r.get_vector<char>();
        std::string name(name_bytes.begin(), name_bytes.end());
        r.set_segment("entry payload");
        auto archive = r.get_vector<std::uint8_t>();
        bool intact;
        if (h.version >= 2) {
          // Per-entry evidence localizes the damage.
          intact = r.get<std::uint32_t>() == entry_crc(name, archive);
        } else {
          // v1 has only the whole-blob CRC: with it broken, no individual
          // entry can be vouched for.
          intact = res.container_crc_ok;
        }
        if (!intact || name.empty() || name.size() > 4096 || res.bundle.contains(name)) {
          res.corrupt.push_back(name.empty() ? fallback : name);
          continue;
        }
        res.bundle.add(std::move(name), std::move(archive));
      } catch (const DecodeError&) {
        // A broken length field desynchronizes the stream; nothing after
        // this point can be framed reliably.
        for (std::uint64_t k = i; k < h.count; ++k) {
          res.corrupt.push_back("entry #" + std::to_string(k));
        }
        break;
      }
    }
    return res;
  });
}

}  // namespace szp
