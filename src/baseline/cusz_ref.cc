#include "baseline/cusz_ref.hh"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/archive.hh"
#include "core/error.hh"
#include "core/huffman/codec.hh"
#include "core/metrics.hh"
#include "core/serialize.hh"
#include "sim/histogram.hh"
#include "sim/sparse.hh"
#include "sim/timer.hh"

namespace szp::baseline {

namespace {
constexpr std::uint32_t kMagic = 0x305A5343;  // "CSZ0"
}

Compressed CuszCompressor::compress(std::span<const float> data, const Extents& ext) const {
  if (data.empty() || data.size() != ext.count()) {
    throw std::invalid_argument("CuszCompressor::compress: data must match extents");
  }
  cfg_.quant.validate();

  Compressed out;
  CompressStats& st = out.stats;
  st.original_bytes = data.size_bytes();
  st.workflow_used = Workflow::kHuffman;

  const ValueRange range = ValueRange::of(data);
  if (!range.finite) {
    throw std::invalid_argument("CuszCompressor::compress: data contains non-finite values");
  }
  // Same strict-bound margin as szp::Compressor (see compressor.cc).
  const double eb_user = cfg_.eb.resolve(range.span());
  const double margin = std::max(eb_user * 1e-6, range.max_abs() * 0x1p-22);
  if (margin >= 0.5 * eb_user) {
    throw std::invalid_argument("CuszCompressor::compress: error bound below float32 precision");
  }
  st.eb_abs = eb_user;
  const double eb_kernel = eb_user - margin;

  sim::Timer t;
  PredictorProduct lorenzo;
  lorenzo_construct_into(data, ext, eb_kernel, cfg_.quant, OutlierScheme::kValue,
                         ConstructVariant::kBaseline, lorenzo);
  st.pipeline.add({"lorenzo_construct", st.original_bytes, t.seconds(), lorenzo.cost});

  t.reset();
  (void)lorenzo_gather_outliers(ext, kLorenzoRun, lorenzo);

  // The construct kernel compacts value-space outliers per block and the
  // merge writes them in index order: cuSZ's dense-to-sparse gather,
  // modeled as such.
  const auto& outliers = lorenzo.outliers;
  st.outlier_count = outliers.nnz();
  st.pipeline.add({"gather_outlier", st.original_bytes, t.seconds(),
                   sim::gather_cost(data.size(), sizeof(qdiff_t), outliers.nnz(),
                                    sizeof(std::uint64_t))});

  t.reset();
  const auto freq = sim::device_histogram<quant_t>(
      std::span<const quant_t>(lorenzo.quant.data(), lorenzo.quant.size()),
      cfg_.quant.capacity);
  st.pipeline.add({"histogram", st.original_bytes, t.seconds(),
                   sim::histogram_cost(data.size(), sizeof(quant_t), cfg_.quant.capacity)});

  t.reset();
  const auto book = HuffmanCodebook::build(freq);
  st.pipeline.add({"huffman_book", st.original_bytes, t.seconds(), book.build_cost()});

  t.reset();
  const auto enc = huffman_encode(std::span<const quant_t>(lorenzo.quant.data(), lorenzo.quant.size()),
                                  book, cfg_.huffman_chunk, HuffmanEncVariant::kBaseline);
  st.pipeline.add({"huffman_encode", st.original_bytes, t.seconds(), enc.cost});

  ByteWriter w;
  w.put(kMagic);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(ext.rank));
  w.put<std::uint64_t>(ext.nx);
  w.put<std::uint64_t>(ext.ny);
  w.put<std::uint64_t>(ext.nz);
  w.put<double>(eb_kernel);
  w.put<std::uint32_t>(cfg_.quant.capacity);
  w.put_vector(outliers.indices);
  w.put_vector(outliers.values);
  book.serialize(w);
  w.put<std::uint64_t>(enc.num_symbols);
  w.put<std::uint32_t>(enc.chunk_size);
  w.put_vector(enc.chunk_offsets);
  w.put_vector(enc.payload);

  out.bytes = w.take();
  st.compressed_bytes = out.bytes.size();
  st.ratio = compression_ratio(st.original_bytes, st.compressed_bytes);
  return out;
}

Decompressed CuszCompressor::decompress(std::span<const std::uint8_t> archive) {
  return decode_guard("cusz archive", [&] {
  ByteReader r(archive);
  r.set_segment("header");
  if (r.get<std::uint32_t>() != kMagic) {
    throw DecodeError(DecodeErrorKind::kBadMagic, "header", "not a CSZ0 archive");
  }
  Extents ext;
  ext.rank = r.get<std::uint8_t>();
  ext.nx = r.get<std::uint64_t>();
  ext.ny = r.get<std::uint64_t>();
  ext.nz = r.get<std::uint64_t>();
  if (ext.rank < 1 || ext.rank > 3) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "rank " + std::to_string(ext.rank) + " outside [1, 3]");
  }
  if (ext.nx == 0 || ext.ny == 0 || ext.nz == 0 ||
      (ext.rank < 2 && ext.ny != 1) || (ext.rank < 3 && ext.nz != 1)) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "extents inconsistent with the declared rank");
  }
  std::uint64_t count = 0;
  if (__builtin_mul_overflow(ext.nx, ext.ny, &count) ||
      __builtin_mul_overflow(count, ext.nz, &count)) {
    throw DecodeError(DecodeErrorKind::kLengthOverflow, "header",
                      "extents overflow the element count");
  }
  const double eb_abs = r.get<double>();
  if (!(eb_abs > 0.0) || !std::isfinite(eb_abs)) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "error bound is not a finite positive value");
  }
  const auto capacity = r.get<std::uint32_t>();
  if (capacity < 2) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "header",
                      "quantizer capacity " + std::to_string(capacity) + " below 2");
  }
  QuantConfig qcfg{capacity};

  const std::size_t n = count;
  sim::SparseVector<qdiff_t> outliers;
  archive::read_outliers(r, n, outliers);

  HuffmanEncoded enc;
  const auto book = HuffmanCodebook::deserialize(r);
  r.set_segment("huffman stream");
  enc.num_symbols = r.get<std::uint64_t>();
  enc.chunk_size = r.get<std::uint32_t>();
  enc.chunk_offsets = r.get_vector<std::uint64_t>();
  enc.payload = r.get_vector<std::uint8_t>();

  const std::size_t payload_bytes = n * sizeof(float);

  Decompressed out;
  out.extents = ext;

  sim::Timer t;
  auto dec = huffman_decode(enc, book);
  out.pipeline.add({"huffman_decode", payload_bytes, t.seconds(), dec.cost});
  if (dec.symbols.size() != n) {
    throw DecodeError(DecodeErrorKind::kCorruptStream, "huffman stream",
                      "decoded " + std::to_string(dec.symbols.size()) +
                          " symbols, the grid holds " + std::to_string(n));
  }

  // Scatter value-space outliers into a dense array for the coarse kernel's
  // placeholder branch (cuSZ keeps them separate; the branch is the point).
  t.reset();
  std::vector<qdiff_t> dense_values(n, 0);
  sim::scatter_add(outliers, std::span<qdiff_t>(dense_values));
  out.pipeline.add({"scatter_outlier", payload_bytes, t.seconds(),
                    sim::scatter_cost(outliers.nnz(), sizeof(qdiff_t), sizeof(std::uint64_t))});

  t.reset();
  out.data.resize(n);
  const auto cost = lorenzo_reconstruct_coarse<float>(
      std::span<const quant_t>(dec.symbols.data(), dec.symbols.size()),
      std::span<const qdiff_t>(dense_values.data(), dense_values.size()), ext, eb_abs, qcfg,
      std::span<float>(out.data.data(), out.data.size()));
  out.pipeline.add({"lorenzo_reconstruct", payload_bytes, t.seconds(), cost});
  return out;
  });
}

}  // namespace szp::baseline
