#include "core/checksum.hh"

#include <array>

namespace szp {

namespace {

using Table = std::array<std::uint32_t, 256>;

/// Slicing-by-8 tables: kTables[0] is the bytewise CRC table, and
/// kTables[k][b] is the CRC contribution of byte b followed by k zero bytes,
/// so eight table lookups advance the state by a whole 8-byte word.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

/// Little-endian u32 assembled from bytes: no alignment or host-endianness
/// assumption (compilers lower it to one load on little-endian hosts).
std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) | (std::uint32_t{p[2]} << 16) |
         (std::uint32_t{p[3]} << 24);
}

// --- The GF(2) shift that joins streams (zlib's crc32_combine) -----------
//
// A CRC state is a polynomial over GF(2), bit 31 holding x^0 (the reflected
// order).  Feeding k zero bytes multiplies it by x^(8k) modulo the CRC
// polynomial, and the update is linear in state and data together, so
//   update(s, A || B) = update(s, A) * x^(8|B|)  xor  update(0, B).

/// a * b modulo the CRC polynomial.
constexpr std::uint32_t mult_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1u) != 0 ? (b >> 1) ^ 0xedb88320u : b >> 1;
  }
  return product;
}

/// kPow2[k] = x^(2^k) modulo the CRC polynomial.
constexpr std::array<std::uint32_t, 64> make_pow2() {
  std::array<std::uint32_t, 64> t{};
  t[0] = 1u << 30;  // x^1
  for (std::size_t k = 1; k < t.size(); ++k) t[k] = mult_mod_p(t[k - 1], t[k - 1]);
  return t;
}

constexpr auto kPow2 = make_pow2();

/// x^(8 * bytes) modulo the CRC polynomial: the factor that moves a state
/// past `bytes` zero bytes.
std::uint32_t zero_bytes_factor(std::uint64_t bytes) {
  std::uint32_t factor = 1u << 31;  // x^0
  for (std::size_t k = 3; bytes != 0; bytes >>= 1, ++k) {
    if ((bytes & 1u) != 0) factor = mult_mod_p(kPow2[k], factor);
  }
  return factor;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, std::span<const std::uint8_t> bytes) {
  // One slicing-by-8 step over the eight bytes at `q`.  A lambda, so that
  // it is inlined into the four-stream loop: called, it costs that loop
  // most of its gain.
  const auto step8 = [](std::uint32_t s, const std::uint8_t* q) {
    const std::uint32_t lo = s ^ load_le32(q);
    const std::uint32_t hi = load_le32(q + 4);
    return kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
           kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xffu] ^
           kTables[2][(hi >> 8) & 0xffu] ^ kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  };
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  if (n >= kCrc32StreamBytes) {
    // Four streams over four quarters of whole 8-byte words: independent
    // table walks overlap instead of each step waiting on the last.  The
    // later quarters start from state 0 and are joined in by the shift.
    const std::size_t quarter = n / 4 / 8 * 8;
    std::uint32_t s0 = state, s1 = 0, s2 = 0, s3 = 0;
    for (std::size_t i = 0; i < quarter; i += 8) {
      s0 = step8(s0, p + i);
      s1 = step8(s1, p + quarter + i);
      s2 = step8(s2, p + 2 * quarter + i);
      s3 = step8(s3, p + 3 * quarter + i);
    }
    const std::uint32_t shift = zero_bytes_factor(quarter);
    state = mult_mod_p(shift, mult_mod_p(shift, mult_mod_p(shift, s0) ^ s1) ^ s2) ^ s3;
    p += 4 * quarter;
    n -= 4 * quarter;
  }
  for (; n >= 8; p += 8, n -= 8) state = step8(state, p);
  for (; n > 0; ++p, --n) {
    state = kTables[0][(state ^ *p) & 0xffu] ^ (state >> 8);
  }
  return state;
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  return crc32_final(crc32_update(crc32_init(), bytes));
}

}  // namespace szp
