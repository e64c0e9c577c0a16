#include "core/huffman/codebook.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace szp {

namespace {

struct Node {
  std::uint64_t weight;
  std::uint32_t order;  // tie-break for determinism
  std::int32_t left = -1, right = -1;
  std::int32_t symbol = -1;  // leaf only
};

}  // namespace

HuffmanCodebook HuffmanCodebook::build(std::span<const std::uint64_t> freq) {
  if (freq.empty() || freq.size() > 65536) {
    throw std::invalid_argument("HuffmanCodebook: alphabet size must be in [1, 65536]");
  }
  HuffmanCodebook cb;
  cb.lengths_.assign(freq.size(), 0);
  cb.codes_.assign(freq.size(), 0);

  std::vector<Node> nodes;
  nodes.reserve(2 * freq.size());
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] > 0) {
      nodes.push_back({freq[s], static_cast<std::uint32_t>(nodes.size()), -1, -1,
                       static_cast<std::int32_t>(s)});
    }
  }

  if (nodes.empty()) {
    cb.max_len_ = 0;
    cb.assign_canonical_codes();
    return cb;
  }
  if (nodes.size() == 1) {
    cb.lengths_[static_cast<std::size_t>(nodes[0].symbol)] = 1;
    cb.max_len_ = 1;
    cb.assign_canonical_codes();
    return cb;
  }

  // Standard heap-based tree build (the single-GPU-thread procedure of cuSZ).
  const auto cmp = [&nodes](std::int32_t a, std::int32_t b) {
    const auto sa = static_cast<std::size_t>(a);
    const auto sb = static_cast<std::size_t>(b);
    if (nodes[sa].weight != nodes[sb].weight) return nodes[sa].weight > nodes[sb].weight;
    return nodes[sa].order > nodes[sb].order;
  };
  std::priority_queue<std::int32_t, std::vector<std::int32_t>, decltype(cmp)> heap(cmp);
  for (std::size_t i = 0; i < nodes.size(); ++i) heap.push(static_cast<std::int32_t>(i));

  while (heap.size() > 1) {
    const std::int32_t a = heap.top();
    heap.pop();
    const std::int32_t b = heap.top();
    heap.pop();
    const auto sa = static_cast<std::size_t>(a);
    const auto sb = static_cast<std::size_t>(b);
    nodes.push_back({nodes[sa].weight + nodes[sb].weight,
                     static_cast<std::uint32_t>(nodes.size()), a, b, -1});
    heap.push(static_cast<std::int32_t>(nodes.size() - 1));
  }

  // Depth-first length assignment (iterative to bound stack depth).
  std::vector<std::pair<std::int32_t, unsigned>> stack{{heap.top(), 0}};
  unsigned max_len = 0;
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& nd = nodes[static_cast<std::size_t>(idx)];
    if (nd.symbol >= 0) {
      const unsigned len = depth == 0 ? 1 : depth;  // root-as-leaf safety
      if (len > kMaxCodeLen) {
        throw std::runtime_error("HuffmanCodebook: code length exceeds 63 bits");
      }
      cb.lengths_[static_cast<std::size_t>(nd.symbol)] = static_cast<std::uint8_t>(len);
      max_len = std::max(max_len, len);
    } else {
      stack.emplace_back(nd.left, depth + 1);
      stack.emplace_back(nd.right, depth + 1);
    }
  }
  cb.max_len_ = max_len;
  cb.assign_canonical_codes();
  return cb;
}

void HuffmanCodebook::assign_canonical_codes() {
  first_code_.fill(0);
  first_index_.fill(0);
  count_.fill(0);
  sorted_symbols_.clear();

  for (std::size_t s = 0; s < lengths_.size(); ++s) {
    if (lengths_[s] > 0) ++count_[lengths_[s]];
  }

  // Canonical numbering: codes of each length start where the previous
  // length's codes end, left-shifted.
  std::uint64_t code = 0;
  std::uint32_t index = 0;
  for (unsigned len = 1; len <= kMaxCodeLen; ++len) {
    code <<= 1;
    first_code_[len] = code;
    first_index_[len] = index;
    code += count_[len];
    index += count_[len];
  }

  sorted_symbols_.resize(index);
  lut_.fill(0);
  std::array<std::uint32_t, kMaxCodeLen + 1> next{};
  for (std::size_t s = 0; s < lengths_.size(); ++s) {
    const unsigned len = lengths_[s];
    if (len == 0) continue;
    const std::uint32_t pos = first_index_[len] + next[len];
    sorted_symbols_[pos] = static_cast<std::uint32_t>(s);
    codes_[s] = first_code_[len] + next[len];
    ++next[len];
    // Every table index whose top `len` bits are this code.  The lengths
    // satisfy Kraft (build() by construction, deserialize() by check), so
    // codes_[s] < 2^len and the run stays inside the table.
    if (len <= kLutBits) {
      std::fill_n(lut_.begin() + static_cast<std::ptrdiff_t>(codes_[s] << (kLutBits - len)),
                  std::size_t{1} << (kLutBits - len), (static_cast<std::uint32_t>(s) << 8) | len);
    }
  }
}

double HuffmanCodebook::average_bits(std::span<const std::uint64_t> freq) const {
  if (freq.size() != lengths_.size()) {
    throw std::invalid_argument("HuffmanCodebook::average_bits: frequency size mismatch");
  }
  std::uint64_t total = 0, bits = 0;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    total += freq[s];
    bits += freq[s] * lengths_[s];
  }
  return total > 0 ? static_cast<double>(bits) / static_cast<double>(total) : 0.0;
}

sim::KernelCost HuffmanCodebook::build_cost() const {
  // One GPU thread builds the tree (paper §I): pure latency, no parallelism.
  sim::KernelCost c;
  const auto cap = static_cast<std::uint64_t>(lengths_.size());
  c.bytes_read = cap * sizeof(std::uint64_t);
  c.bytes_written = cap * (sizeof(std::uint64_t) + 1);
  c.flops = cap * 64;  // heap operations
  c.parallel_items = 1;
  c.pattern = sim::AccessPattern::kStrided;
  // Serial build latency dominates; modeled as a fixed-launch burden
  // (~0.2 ms for a 1024-symbol book, consistent with Table VII's overall
  // compression throughput on the small CESM fields).
  c.launches = 40;
  return c;
}

void HuffmanCodebook::serialize(ByteWriter& w) const {
  // Sparse form: most alphabets (e.g. the 65536-entry run-length book) have
  // few live symbols, so (symbol, length) pairs beat a dense lengths array.
  w.put<std::uint32_t>(static_cast<std::uint32_t>(lengths_.size()));
  std::uint32_t live = 0;
  for (const auto l : lengths_) live += l > 0 ? 1u : 0u;
  w.put<std::uint32_t>(live);
  for (std::size_t s = 0; s < lengths_.size(); ++s) {
    if (lengths_[s] > 0) {
      w.put<std::uint32_t>(static_cast<std::uint32_t>(s));
      w.put<std::uint8_t>(lengths_[s]);
    }
  }
}

HuffmanCodebook HuffmanCodebook::deserialize(ByteReader& r) {
  r.set_segment("codebook");
  HuffmanCodebook cb;
  const auto alphabet = r.get<std::uint32_t>();
  if (alphabet == 0 || alphabet > 65536) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "codebook",
                      "alphabet size " + std::to_string(alphabet) + " outside [1, 65536]");
  }
  cb.lengths_.assign(alphabet, 0);
  const auto live = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < live; ++i) {
    const auto sym = r.get<std::uint32_t>();
    const auto len = r.get<std::uint8_t>();
    if (sym >= alphabet || len == 0 || len > kMaxCodeLen || cb.lengths_[sym] != 0) {
      throw DecodeError(DecodeErrorKind::kCorruptStream, "codebook",
                        "corrupt symbol entry " + std::to_string(i) + " of " +
                            std::to_string(live));
    }
    cb.lengths_[sym] = len;
  }
  // Kraft inequality: a decodable prefix code satisfies sum(2^-len) <= 1.
  // An over-subscribed length set from a spliced stream would make canonical
  // code assignment ambiguous and decode silently wrong symbols.
  unsigned __int128 kraft = 0;
  for (const auto l : cb.lengths_) {
    if (l > 0) kraft += static_cast<unsigned __int128>(1) << (kMaxCodeLen - l);
  }
  if (kraft > static_cast<unsigned __int128>(1) << kMaxCodeLen) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "codebook",
                      "code lengths violate the Kraft inequality (over-subscribed code space)");
  }
  cb.codes_.assign(cb.lengths_.size(), 0);
  cb.max_len_ = 0;
  for (const auto l : cb.lengths_) cb.max_len_ = std::max<unsigned>(cb.max_len_, l);
  cb.assign_canonical_codes();
  return cb;
}

}  // namespace szp
