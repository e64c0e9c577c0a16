// google-benchmark microbenchmarks of the substrate primitives and the core
// kernels — the per-kernel numbers behind the table benches, with proper
// statistical repetition.  Throughput counters are payload bytes/second.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "core/huffman/codebook.hh"
#include "core/huffman/codec.hh"
#include "core/predictor/lorenzo.hh"
#include "core/rle/rle.hh"
#include "sim/device_scan.hh"
#include "sim/histogram.hh"
#include "sim/reduce_by_key.hh"

namespace {

using namespace szp;

std::vector<float> bench_field(std::size_t n, std::uint32_t seed = 42) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  float acc = 0.0f;
  for (auto& x : v) {
    acc = 0.995f * acc + 0.02f * dist(rng);
    x = acc;
  }
  return v;
}

std::vector<quant_t> bench_codes(std::size_t n) {
  const auto data = bench_field(n);
  auto lorenzo = lorenzo_construct(data, Extents::d1(n), 1e-3, QuantConfig{});
  return {lorenzo.quant.begin(), lorenzo.quant.end()};
}

void BM_DeviceScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> in(n, 3), out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::device_exclusive_scan(std::span<const std::uint64_t>(in), std::span<std::uint64_t>(out)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n * sizeof(std::uint64_t)));
}
BENCHMARK(BM_DeviceScan)->Arg(1 << 16)->Arg(1 << 20);

void BM_DeviceHistogram(benchmark::State& state) {
  const auto codes = bench_codes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::device_histogram<quant_t>(codes, 1024));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * codes.size() * sizeof(float)));
}
BENCHMARK(BM_DeviceHistogram)->Arg(1 << 20);

void BM_ReduceByKey(benchmark::State& state) {
  const auto codes = bench_codes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::reduce_by_key<quant_t, std::uint64_t>(codes));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * codes.size() * sizeof(float)));
}
BENCHMARK(BM_ReduceByKey)->Arg(1 << 20);

template <int Rank>
Extents extents_of(std::size_t n) {
  if constexpr (Rank == 1) return Extents::d1(n);
  if constexpr (Rank == 2) {
    const auto side = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
    return Extents::d2(side, side);
  }
  const auto side = static_cast<std::size_t>(std::cbrt(static_cast<double>(n)));
  return Extents::d3(side, side, side);
}

template <int Rank>
void BM_LorenzoConstruct(benchmark::State& state) {
  const Extents ext = extents_of<Rank>(static_cast<std::size_t>(state.range(0)));
  const auto data = bench_field(ext.count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(lorenzo_construct(data, ext, 1e-3, QuantConfig{}));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * ext.count() * sizeof(float)));
}
BENCHMARK(BM_LorenzoConstruct<1>)->Arg(1 << 21);
BENCHMARK(BM_LorenzoConstruct<2>)->Arg(1 << 21);
BENCHMARK(BM_LorenzoConstruct<3>)->Arg(1 << 21);

template <int Rank>
void BM_LorenzoReconstruct(benchmark::State& state) {
  const Extents ext = extents_of<Rank>(static_cast<std::size_t>(state.range(0)));
  const auto data = bench_field(ext.count());
  const auto lorenzo = lorenzo_construct(data, ext, 1e-3, QuantConfig{});
  const std::span<const quant_t> quant(lorenzo.quant.data(), lorenzo.quant.size());
  std::vector<float> out(ext.count());
  for (auto _ : state) {
    lorenzo_reconstruct<float>(quant, lorenzo.outliers, ext, 1e-3, QuantConfig{}.radius(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * ext.count() * sizeof(float)));
}
BENCHMARK(BM_LorenzoReconstruct<1>)->Arg(1 << 21);
BENCHMARK(BM_LorenzoReconstruct<2>)->Arg(1 << 21);
BENCHMARK(BM_LorenzoReconstruct<3>)->Arg(1 << 21);

void BM_HuffmanEncode(benchmark::State& state) {
  const auto codes = bench_codes(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint64_t> freq(1024, 0);
  for (const auto c : codes) ++freq[c];
  const auto book = HuffmanCodebook::build(freq);
  for (auto _ : state) {
    benchmark::DoNotOptimize(huffman_encode(codes, book));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * codes.size() * sizeof(float)));
}
BENCHMARK(BM_HuffmanEncode)->Arg(1 << 20);

void BM_HuffmanDecode(benchmark::State& state) {
  const auto codes = bench_codes(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint64_t> freq(1024, 0);
  for (const auto c : codes) ++freq[c];
  const auto book = HuffmanCodebook::build(freq);
  const auto enc = huffman_encode(codes, book);
  for (auto _ : state) {
    benchmark::DoNotOptimize(huffman_decode(enc, book));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * codes.size() * sizeof(float)));
}
BENCHMARK(BM_HuffmanDecode)->Arg(1 << 20);

void BM_RleRoundTrip(benchmark::State& state) {
  const auto codes = bench_codes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto enc = rle_encode(codes);
    benchmark::DoNotOptimize(rle_decode(enc));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * codes.size() * sizeof(float)));
}
BENCHMARK(BM_RleRoundTrip)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
