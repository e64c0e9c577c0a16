// CLI tests: the `szp` tool driven in-process over temp files.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/eb.hh"
#include "core/io/io.hh"
#include "core/metrics.hh"
#include "tools/cli.hh"

namespace {

namespace fs = std::filesystem;

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = szp::cli::run(args, out, err);
  return {code, out.str(), err.str()};
}

/// A raw float32 file, the format `szp gen` writes and `szp decompress`
/// restores.
std::vector<float> read_f32(const std::string& p) {
  const auto bytes = szp::io::read_file(p);
  std::vector<float> v(bytes.size() / sizeof(float));
  std::memcpy(v.data(), bytes.data(), v.size() * sizeof(float));
  return v;
}
void write_f32(const std::string& p, const std::vector<float>& v) {
  szp::io::write_file(p, {reinterpret_cast<const std::uint8_t*>(v.data()),
                          v.size() * sizeof(float)});
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("szp_cli_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(run({"help"}).code, 0);
  const auto r = run({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, GenCompressInfoDecompressRoundTrip) {
  const auto raw = path("field.f32");
  const auto szp_file = path("field.szp");
  const auto restored = path("restored.f32");

  auto r = run({"gen", "-o", raw, "--dataset", "CESM-ATM", "--field", "FSDSC", "--scale", "0.05"});
  ASSERT_EQ(r.code, 0) << r.err;
  // scale 0.05 -> 90x180
  r = run({"compress", "-i", raw, "-o", szp_file, "-d", "90x180", "--eb", "1e-3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("ratio"), std::string::npos);

  r = run({"info", "-i", szp_file});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("rank 2"), std::string::npos);
  EXPECT_NE(r.out.find("float32"), std::string::npos);

  r = run({"decompress", "-i", szp_file, "-o", restored});
  ASSERT_EQ(r.code, 0) << r.err;

  const auto original = read_f32(raw);
  const auto roundtrip = read_f32(restored);
  ASSERT_EQ(original.size(), roundtrip.size());
  const auto m = szp::compare_fields(original, roundtrip);
  const auto range = szp::ValueRange::of(original);
  EXPECT_LT(m.max_abs_error, 1e-3 * range.span());
}

TEST_F(CliTest, GenHintKeepsTheFieldsRank) {
  // Following the hint compresses the field at its own rank: a 1-D HACC
  // field and a 2-D CESM field, each compressed with the hint's -d.
  struct Case {
    std::string dataset, field, scale, info;
  };
  for (const Case& c : {Case{"HACC", "vx", "0.003", "rank 1, dims 1x1x25166 "},
                        Case{"CESM-ATM", "FSDSC", "0.05", "rank 2, dims 1x90x180 "}}) {
    SCOPED_TRACE(c.dataset);
    const auto raw = path("h.f32");
    const auto arc = path("h.szp");
    auto r = run({"gen", "-o", raw, "--dataset", c.dataset, "--field", c.field, "--scale",
                  c.scale});
    ASSERT_EQ(r.code, 0) << r.err;
    const auto at = r.out.find(" -d ");
    ASSERT_NE(at, std::string::npos) << r.out;
    const auto dims = r.out.substr(at + 4, r.out.find(' ', at + 4) - (at + 4));
    r = run({"compress", "-i", raw, "-o", arc, "-d", dims, "--eb", "1e-3"});
    ASSERT_EQ(r.code, 0) << r.err;
    r = run({"info", "-i", arc});
    EXPECT_NE(r.out.find(c.info), std::string::npos) << "-d " << dims << "\n" << r.out;
  }
}

TEST_F(CliTest, ExplicitWorkflowAndPredictor) {
  const auto raw = path("f.f32");
  const auto arc = path("f.szp");
  ASSERT_EQ(run({"gen", "-o", raw, "--dataset", "Nyx", "--field", "temperature", "--scale",
                 "0.05"}).code, 0);
  // 26x26x26 at scale 0.05
  auto r = run({"compress", "-i", raw, "-o", arc, "-d", "26x26x26", "--eb", "1e-2",
                "--workflow", "rle+vle", "--predictor", "regression"});
  ASSERT_EQ(r.code, 0) << r.err;
  r = run({"info", "-i", arc});
  EXPECT_NE(r.out.find("rle+vle"), std::string::npos);
  EXPECT_NE(r.out.find("regression"), std::string::npos);
}

TEST_F(CliTest, CodecOptionSelectsLosslessTier) {
  // --codec is the canonical spelling; every registered codec id must parse,
  // round-trip, and be reported back by `info`.
  const auto raw = path("c.f32");
  const auto restored = path("c_out.f32");
  ASSERT_EQ(run({"gen", "-o", raw, "--dataset", "Nyx", "--field", "temperature", "--scale",
                 "0.05"}).code, 0);
  for (const std::string codec : {"huffman", "rle", "rle+vle", "rans", "lz77", "lzh", "lzr"}) {
    const auto arc = path("c_" + codec + ".szp");
    auto r = run({"compress", "-i", raw, "-o", arc, "-d", "26x26x26", "--eb", "1e-2",
                  "--codec", codec});
    ASSERT_EQ(r.code, 0) << codec << ": " << r.err;
    r = run({"info", "-i", arc});
    EXPECT_NE(r.out.find(codec), std::string::npos) << codec;
    ASSERT_EQ(run({"decompress", "-i", arc, "-o", restored}).code, 0) << codec;
    const auto original = read_f32(raw);
    const auto roundtrip = read_f32(restored);
    ASSERT_EQ(original.size(), roundtrip.size()) << codec;
    const auto m = szp::compare_fields(original, roundtrip);
    const auto range = szp::ValueRange::of(original);
    EXPECT_LT(m.max_abs_error, 1e-2 * range.span()) << codec;
  }
  const auto bad = run({"compress", "-i", raw, "-o", path("x.szp"), "-d", "26x26x26",
                        "--codec", "zstd"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("unknown codec"), std::string::npos);
}

TEST_F(CliTest, AnalyzeCodecsPrintsDeterministicScoreTable) {
  const auto a = run({"analyze", "--codecs"});
  ASSERT_EQ(a.code, 0) << a.err;
  // Every registered codec appears in each scenario's table.
  for (const std::string codec : {"huffman", "rle", "rle+vle", "rans", "lz77", "lzh", "lzr"}) {
    EXPECT_NE(a.out.find(codec), std::string::npos) << codec;
  }
  EXPECT_NE(a.out.find("selected:"), std::string::npos);
  // Deterministic: a second invocation prints byte-identical output.
  const auto b = run({"analyze", "--codecs"});
  EXPECT_EQ(a.out, b.out);
}

TEST(CliAnalyze, VerdictTableIsPinned) {
  // One row per kernel the canned workload launches: name, verdict, and the
  // first proof obstacle of an unproved contract.
  struct Row {
    std::string kernel, verdict, reason;
  };
  const std::string kProved = "proved";
  const std::string kUnproved = "unproved-fallback-dynamic";
  const std::vector<Row> expected = {
      {"codec/quant_pack", kProved, ""},
      {"codec/quant_unpack", kProved, ""},
      {"device_scan/tile_reduce", kProved, ""},
      {"device_scan/tile_scan", kProved, ""},
      {"histogram/merge", kProved, ""},
      {"histogram/tile_bins", kProved, ""},
      {"huffman_decode", kProved, ""},
      {"huffman_encode/chunk_sizes", kProved, ""},
      {"huffman_encode/deflate", kUnproved, "payload: data-dependent write footprint"},
      {"lorenzo_construct", kProved, ""},
      {"lorenzo_reconstruct", kProved, ""},
      {"lorenzo_reconstruct_coarse", kProved, ""},
      {"lz77/freq_merge", kProved, ""},
      {"lz77/token_freq", kProved, ""},
      {"lz77/tokenize", kProved, ""},
      {"lzh/decode", kProved, ""},
      {"lzh/encode", kProved, ""},
      {"lzr/expand", kProved, ""},
      {"lzr/token_split", kProved, ""},
      {"reduce_by_key/tile_runs", kProved, ""},
      {"regression_construct", kProved, ""},
      {"regression_reconstruct", kProved, ""},
      {"rle_decode/expand", kUnproved, "symbols: data-dependent write footprint"},
      {"scatter_add", kUnproved, "dense: data-dependent write footprint"},
      {"zfp_compress", kProved, ""},
      {"zfp_decompress", kProved, ""},
  };

  const auto r = run({"analyze"});
  ASSERT_EQ(r.code, 0) << r.out << r.err;
  std::istringstream text(r.out);
  std::string line;
  ASSERT_TRUE(std::getline(text, line));
  EXPECT_EQ(line.rfind("contract-analyze: 26 kernel(s): 23 proved, 3 unproved-fallback-dynamic", 0),
            0u)
      << line;
  for (const Row& want : expected) {
    ASSERT_TRUE(std::getline(text, line)) << "missing row for " << want.kernel;
    std::istringstream fields(line);
    Row got;
    fields >> got.kernel >> got.verdict;
    std::getline(fields >> std::ws, got.reason);
    if (got.reason.size() >= 2 && got.reason.front() == '(' && got.reason.back() == ')') {
      got.reason = got.reason.substr(1, got.reason.size() - 2);
    }
    EXPECT_EQ(got.kernel, want.kernel) << line;
    EXPECT_EQ(got.verdict, want.verdict) << line;
    EXPECT_EQ(got.reason, want.reason) << line;
  }
  // The checker's summary follows the last kernel row.
  ASSERT_TRUE(std::getline(text, line));
  EXPECT_EQ(line.rfind("sim-check:", 0), 0u) << line;
}

TEST(CliAnalyze, TrafficTableIsPinned) {
  // Every header line and row of the traffic and roofline tables the canned
  // workload prints: launches, contract-derived volumes, coalescing, the dyn
  // flag, intensity, ridge and bound.
  const char* const kWant[] = {
      "static traffic: 26 kernel(s), 4985317 byte(s) read, 6252602 byte(s) written (contract-derived)",
      "  kernel                        launches     read-bytes    write-bytes  coalesce  dyn",
      "  codec/quant_pack                     3         120000         120000      1.00     ",
      "  codec/quant_unpack                   3         120000         120000      1.00     ",
      "  device_scan/tile_reduce              3          40320             96      0.96     ",
      "  device_scan/tile_scan                3          40416          40320      0.98     ",
      "  histogram/merge                      5         147456          40960      1.00     ",
      "  histogram/tile_bins                  5         347456         147456      1.00     ",
      "  huffman_decode                       2          51920          80000      0.98  dyn",
      "  huffman_encode/chunk_sizes           2          80000            320      0.94     ",
      "  huffman_encode/deflate               2          80640          20320      0.93  dyn",
      "  lorenzo_construct                    6         328640         822104      0.90     ",
      "  lorenzo_reconstruct                  5         162388         324320      0.94  dyn",
      "  lorenzo_reconstruct_coarse           1           6480           4320      0.11     ",
      "  lz77/freq_merge                      4          10112          10112      0.99     ",
      "  lz77/token_freq                      4          40304          10112      0.99     ",
      "  lz77/tokenize                        5        3110720        2910720      1.00     ",
      "  lzh/decode                           2           3991          80000      1.00  dyn",
      "  lzh/encode                           2          15096           8675      0.99  dyn",
      "  lzr/expand                           2           9338          80000      0.99  dyn",
      "  lzr/token_split                      2          15096          11795      0.98  dyn",
      "  reduce_by_key/tile_runs              2         240000        1200024      1.00     ",
      "  regression_construct                 1           4448          11408      0.12     ",
      "  regression_reconstruct               1           3248           4320      0.11  dyn",
      "  rle_decode/expand                    1           1800         200000      0.89  dyn",
      "  scatter_add                          1            304             76      0.07  dyn",
      "  zfp_compress                         2           3316           1828      0.12     ",
      "  zfp_decompress                       2           1828           3316      0.12     ",
      "roofline (V100-SXM2): ridge 5.50 flop/B at full coalescing, 900 GB/s peak",
      "  kernel                          flop/B  coalesce   ridge  bound",
      "  codec/quant_pack                  0.50      1.00    5.50  bandwidth",
      "  codec/quant_unpack                0.50      1.00    5.50  bandwidth",
      "  device_scan/tile_reduce           0.25      0.96    5.73  bandwidth",
      "  device_scan/tile_scan             0.25      0.98    5.63  bandwidth",
      "  histogram/merge                   0.25      1.00    5.50  bandwidth",
      "  histogram/tile_bins               1.00      1.00    5.50  bandwidth",
      "  huffman_decode                   60.00      0.98    5.60  compute",
      "  huffman_encode/chunk_sizes        1.00      0.94    5.83  bandwidth",
      "  huffman_encode/deflate            2.50      0.93    5.89  bandwidth",
      "  lorenzo_construct                 0.60      0.90    6.07  bandwidth",
      "  lorenzo_reconstruct               0.50      0.94    5.84  bandwidth",
      "  lorenzo_reconstruct_coarse        0.70      0.11   51.32  bandwidth",
      "  lz77/freq_merge                   0.25      0.99    5.56  bandwidth",
      "  lz77/token_freq                   1.00      0.99    5.55  bandwidth",
      "  lz77/tokenize                    20.00      1.00    5.50  compute",
      "  lzh/decode                       30.00      1.00    5.51  compute",
      "  lzh/encode                        2.50      0.99    5.56  bandwidth",
      "  lzr/expand                        0.50      0.99    5.53  bandwidth",
      "  lzr/token_split                   0.50      0.98    5.60  bandwidth",
      "  reduce_by_key/tile_runs           1.00      1.00    5.50  bandwidth",
      "  regression_construct              0.80      0.12   47.46  bandwidth",
      "  regression_reconstruct            0.60      0.11   49.91  bandwidth",
      "  rle_decode/expand                 0.50      0.89    6.17  bandwidth",
      "  scatter_add                       0.25      0.07   74.04  bandwidth",
      "  zfp_compress                      4.00      0.12   45.94  bandwidth",
      "  zfp_decompress                    4.00      0.12   45.94  bandwidth",
  };
  const auto r = run({"analyze", "--traffic", "--roofline"});
  ASSERT_EQ(r.code, 0) << r.out << r.err;
  std::istringstream text(r.out);
  std::string line;
  while (std::getline(text, line) && line.rfind("static traffic:", 0) != 0) {
  }
  for (const char* want : kWant) {
    EXPECT_EQ(line, want);
    ASSERT_TRUE(std::getline(text, line)) << "missing line " << want;
  }
  EXPECT_EQ(line.rfind("sim-check:", 0), 0u) << line;
}

TEST_F(CliTest, StreamingContainer) {
  const auto raw = path("s.f32");
  const auto arc = path("s.szpc");
  const auto restored = path("s_out.f32");
  ASSERT_EQ(run({"gen", "-o", raw, "--dataset", "HACC", "--field", "vx", "--scale",
                 "0.003"}).code, 0);  // ~25k elements
  auto r = run({"compress", "-i", raw, "-o", arc, "-d", "25166", "--eb", "1e-3", "--stream",
                "8192"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("slabs"), std::string::npos);

  r = run({"info", "-i", arc});
  EXPECT_NE(r.out.find("streaming container"), std::string::npos);

  ASSERT_EQ(run({"decompress", "-i", arc, "-o", restored}).code, 0);
  EXPECT_EQ(read_f32(restored).size(), read_f32(raw).size());
}

TEST_F(CliTest, IntegerOptionsRejectSignsJunkAndOverflow) {
  // Integer options take digits only, plus K/M/G on --memory-budget.  A
  // sign, trailing text or a value past the type exits 1 with an error that
  // names the option; none of them is wrapped or truncated into a run.
  const auto raw = path("n.f32");
  ASSERT_EQ(run({"gen", "-o", raw, "--dataset", "HACC", "--field", "vx", "--scale",
                 "0.003"}).code, 0);  // 25166 elements: four slabs of 8192
  const auto compress = [&](const std::vector<std::string>& extra) {
    std::vector<std::string> args{"compress", "-i", raw, "-o", path("n.szpc"), "-d", "25166",
                                  "--stream", "8192"};
    args.insert(args.end(), extra.begin(), extra.end());  // a repeated option wins
    return run(args);
  };

  auto r = compress({"--workers", "2", "--memory-budget", "1m"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("streamed 4 slabs (2 workers)"), std::string::npos) << r.out;
  r = compress({"--stream", "18446744073709551615"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("streamed 1 slabs"), std::string::npos) << r.out;

  const std::vector<std::pair<std::string, std::string>> bad{
      {"--workers", "-1"},
      {"--workers", "2x"},
      {"--workers", "+2"},
      {"--workers", ""},
      {"--memory-budget", "-1K"},
      {"--memory-budget", "1KB"},
      {"--memory-budget", "18014398509481985K"},
      {"--memory-budget", "18446744073709551616"},
      {"--stream", "-8192"},
      {"--stream", "auto"},
      {"-d", "25166x"},
      {"-d", "x25166"},
      {"-d", "25166 "},
  };
  for (const auto& [option, value] : bad) {
    r = compress({option, value});
    EXPECT_EQ(r.code, 1) << option << " '" << value << "': " << r.out;
    EXPECT_NE(r.err.find(option), std::string::npos) << option << " '" << value << "': " << r.err;
  }
  r = compress({"--fuzz-schedule=2x"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--fuzz-schedule"), std::string::npos) << r.err;

  for (const auto& args : std::vector<std::vector<std::string>>{
           {"fuzz", "--rounds", "-1"},
           {"fuzz", "--rounds", "4294967297"},
           {"fuzz", "--rounds", "1", "--seed", "7x"}}) {
    r = run(args);
    EXPECT_EQ(r.code, 1) << args[2] << " " << args.back();
    EXPECT_NE(r.err.find(args[args.size() - 2]), std::string::npos) << r.err;
  }
}

TEST_F(CliTest, FloatingOptionsRejectJunkAndNonFiniteValues) {
  // --eb, --psnr and --scale take one finite number and nothing after it;
  // anything else exits 1 with an error that names the option, instead of
  // running on a prefix of the value (1e-3abc as 1e-3).
  const auto raw = path("e.f32");
  ASSERT_EQ(run({"gen", "-o", raw, "--dataset", "HACC", "--field", "vx", "--scale",
                 "0.003"}).code, 0);
  const std::vector<std::pair<std::string, std::string>> bad{
      {"--eb", "1e-3abc"}, {"--eb", ""},       {"--eb", " 1e-3"},    {"--eb", "inf"},
      {"--eb", "nan"},     {"--psnr", "1e400"}, {"--psnr", "70dB"},
  };
  for (const auto& [option, value] : bad) {
    const auto r =
        run({"compress", "-i", raw, "-o", path("e.szp"), "-d", "25166", option, value});
    EXPECT_EQ(r.code, 1) << option << " '" << value << "': " << r.out;
    EXPECT_NE(r.err.find(option), std::string::npos) << option << " '" << value << "': " << r.err;
  }
  for (const std::string value : {"0.25x", "-", "1e999"}) {
    const auto r = run({"gen", "-o", path("g.f32"), "--dataset", "HACC", "--field", "vx",
                        "--scale", value});
    EXPECT_EQ(r.code, 1) << value;
    EXPECT_NE(r.err.find("--scale"), std::string::npos) << value << ": " << r.err;
  }
  EXPECT_EQ(run({"compress", "-i", raw, "-o", path("e.szp"), "-d", "25166", "--eb", "1E-3"}).code,
            0);
}

TEST_F(CliTest, OptionsACommandDoesNotTakeAreRefused) {
  // An unknown or inapplicable option exits 1 before the command runs, with
  // an error that names the option and the command: a misspelled --double
  // must not compress f64 bytes as floats.
  const auto raw = path("u.f32");
  const auto arc = path("u.szp");
  ASSERT_EQ(run({"gen", "-o", raw, "--dataset", "HACC", "--field", "vx", "--scale",
                 "0.003"}).code, 0);
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases{
      {{"compress", "-i", raw, "-o", arc, "-d", "25166", "--dobule"}, "--dobule"},
      {{"compress", "-i", raw, "-o", arc, "-d", "25166", "--serial-slabs"}, "--serial-slabs"},
      {{"compress", "-i", raw, "-o", arc, "-d", "25166", "--check=words"}, "--check=words"},
      {{"decompress", "-i", arc, "-o", path("u.out"), "--abs"}, "--abs"},
      {{"info", "-i", arc, "--workers", "7"}, "--workers"},
      {{"info", "-i", arc, "--bogus"}, "--bogus"},
      {{"analyze", "--codec"}, "--codec"},
      {{"verify", "-a", raw, "-b", raw, "--tolerant"}, "--tolerant"},
  };
  for (const auto& [args, option] : cases) {
    const auto r = run(args);
    EXPECT_EQ(r.code, 1) << args[0] << " " << option << ": " << r.out;
    EXPECT_NE(r.err.find("'" + option + "'"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("'" + args[0] + "'"), std::string::npos) << r.err;
  }
  EXPECT_FALSE(fs::exists(arc));
}

TEST_F(CliTest, VerifyComparesRawFiles) {
  const auto f1 = path("a.f32"), f2 = path("b.f32");
  write_f32(f1, std::vector<float>{0.0f, 1.0f, 2.0f, 10.0f});
  write_f32(f2, std::vector<float>{0.5f, 1.0f, 2.0f, 10.0f});
  const auto r = run({"verify", "-a", f1, "-b", f2});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("max |error|: 0.5"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("PSNR"), std::string::npos);

  write_f32(f2, std::vector<float>{1.0f, 2.0f});
  EXPECT_EQ(run({"verify", "-a", f1, "-b", f2}).code, 1);
}

TEST_F(CliTest, PsnrTargetOption) {
  const auto raw = path("p.f32");
  const auto arc = path("p.szp");
  const auto restored = path("p_out.f32");
  ASSERT_EQ(run({"gen", "-o", raw, "--dataset", "Miranda", "--field", "density", "--scale",
                 "0.06"}).code, 0);
  ASSERT_EQ(run({"compress", "-i", raw, "-o", arc, "-d", "15x23x23", "--psnr", "70"}).code, 0);
  ASSERT_EQ(run({"decompress", "-i", arc, "-o", restored}).code, 0);
  const auto m = szp::compare_fields(read_f32(raw), read_f32(restored));
  EXPECT_GT(m.psnr_db, 69.5);
}

TEST_F(CliTest, BundleWorkflow) {
  const auto raw = path("b.f32"), arc1 = path("b1.szp"), arc2 = path("b2.szp");
  const auto bundle = path("snap.szb"), out_arc = path("out.szp"), restored = path("r.f32");
  ASSERT_EQ(run({"gen", "-o", raw, "--dataset", "Miranda", "--field", "pressure", "--scale",
                 "0.06"}).code, 0);
  ASSERT_EQ(run({"compress", "-i", raw, "-o", arc1, "-d", "15x23x23", "--eb", "1e-2"}).code, 0);
  ASSERT_EQ(run({"compress", "-i", raw, "-o", arc2, "-d", "15x23x23", "--eb", "1e-4"}).code, 0);

  ASSERT_EQ(run({"bundle-add", "--bundle", bundle, "--name", "loose", "-i", arc1}).code, 0);
  ASSERT_EQ(run({"bundle-add", "--bundle", bundle, "--name", "tight", "-i", arc2}).code, 0);

  auto r = run({"bundle-list", "--bundle", bundle});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("loose"), std::string::npos);
  EXPECT_NE(r.out.find("2 field(s)"), std::string::npos);

  ASSERT_EQ(run({"bundle-extract", "--bundle", bundle, "--name", "tight", "-o", out_arc}).code,
            0);
  ASSERT_EQ(run({"decompress", "-i", out_arc, "-o", restored}).code, 0);
  EXPECT_EQ(read_f32(restored).size(), read_f32(raw).size());

  // Duplicate names and missing fields are reported as errors.
  EXPECT_EQ(run({"bundle-add", "--bundle", bundle, "--name", "loose", "-i", arc1}).code, 1);
  EXPECT_EQ(run({"bundle-extract", "--bundle", bundle, "--name", "nope", "-o", out_arc}).code, 1);
}

TEST_F(CliTest, CorruptArchivesExitWithCodeFour) {
  const auto raw = path("c.f32");
  const auto arc = path("c.szp");
  ASSERT_EQ(run({"gen", "-o", raw, "--dataset", "CESM-ATM", "--field", "FSDSC", "--scale",
                 "0.05"}).code, 0);
  ASSERT_EQ(run({"compress", "-i", raw, "-o", arc, "-d", "90x180", "--eb", "1e-3"}).code, 0);

  // Truncate the archive in place: decode failures on damaged input are a
  // distinct exit code (4), separate from usage errors (1/2).
  auto bytes = szp::io::read_file(arc);
  ASSERT_GT(bytes.size(), 8u);
  bytes.resize(bytes.size() / 2);
  szp::io::write_file(arc, bytes);

  auto r = run({"decompress", "-i", arc, "-o", path("c_out.f32")});
  EXPECT_EQ(r.code, 4);
  EXPECT_NE(r.err.find("error:"), std::string::npos) << r.err;

  r = run({"info", "-i", arc});
  EXPECT_EQ(r.code, 4);
}

TEST_F(CliTest, TolerantBundleSalvage) {
  const auto raw = path("t.f32"), arc = path("t.szp"), bundle = path("t.szb");
  ASSERT_EQ(run({"gen", "-o", raw, "--dataset", "Miranda", "--field", "pressure", "--scale",
                 "0.06"}).code, 0);
  ASSERT_EQ(run({"compress", "-i", raw, "-o", arc, "-d", "15x23x23", "--eb", "1e-2"}).code, 0);
  ASSERT_EQ(run({"bundle-add", "--bundle", bundle, "--name", "p", "-i", arc}).code, 0);
  ASSERT_EQ(run({"bundle-add", "--bundle", bundle, "--name", "q", "-i", arc}).code, 0);

  // Damage only the trailing whole-blob CRC: strict listing refuses with
  // exit 4; --tolerant warns and lists both fields (their per-entry CRCs
  // still verify).
  auto bytes = szp::io::read_file(bundle);
  bytes.back() ^= 0xff;
  szp::io::write_file(bundle, bytes);

  EXPECT_EQ(run({"bundle-list", "--bundle", bundle}).code, 4);

  const auto r = run({"bundle-list", "--bundle", bundle, "--tolerant"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("warning: bundle checksum mismatch"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("p"), std::string::npos);
  EXPECT_NE(r.out.find("q"), std::string::npos);
}

/// The names in `dir`, so a test can require that a failed run left nothing
/// behind (no output, no temporary beside it).
std::vector<std::string> names_in(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& ent : fs::directory_iterator(dir)) names.push_back(ent.path().filename());
  std::sort(names.begin(), names.end());
  return names;
}

TEST_F(CliTest, FailedFileRunsLeaveTheOutputAsItWas) {
  const auto raw = path("f.f32");
  ASSERT_EQ(run({"gen", "-o", raw, "--dataset", "CESM-ATM", "--field", "FSDSC", "--scale",
                 "0.05"}).code, 0);  // 90x180
  const auto container = path("f.szpc");
  ASSERT_EQ(run({"compress", "-i", raw, "-o", container, "-d", "90x180", "--eb", "1e-3",
                 "--stream", "3600"}).code, 0);
  auto cut = szp::io::read_file(container);
  ASSERT_GT(cut.size(), 64u);
  cut.resize(cut.size() / 2);
  const auto cut_path = path("cut.szpc");
  szp::io::write_file(cut_path, cut);

  std::vector<std::uint8_t> old_bytes(1000);
  for (std::size_t i = 0; i < old_bytes.size(); ++i) old_bytes[i] = static_cast<std::uint8_t>(i);
  const auto existing = path("existing.out");
  szp::io::write_file(existing, old_bytes);
  const auto before = names_in(dir_);

  // Wrong dims (exit 1) and a truncated container (exit 4), each into an
  // existing file and into a fresh path.
  const std::vector<std::pair<std::vector<std::string>, int>> failing{
      {{"compress", "-i", raw, "-d", "90x181", "--eb", "1e-3", "--stream", "3600"}, 1},
      {{"decompress", "-i", cut_path}, 4},
      {{"decompress", "-i", cut_path, "--no-mmap"}, 4}};
  for (const auto& [args, code] : failing) {
    for (const auto& out : {existing, path("fresh.out")}) {
      auto full = args;
      full.insert(full.end(), {"-o", out});
      const auto r = run(full);
      EXPECT_EQ(r.code, code) << args[0] << " -> " << out << ": " << r.err;
      EXPECT_EQ(szp::io::read_file(existing), old_bytes) << args[0] << " -> " << out;
      EXPECT_EQ(names_in(dir_), before) << args[0] << " -> " << out;
    }
  }

  // A successful run replaces the existing file.
  ASSERT_EQ(run({"decompress", "-i", container, "-o", existing}).code, 0);
  EXPECT_EQ(fs::file_size(existing), fs::file_size(raw));
  EXPECT_EQ(names_in(dir_), before);
}

TEST_F(CliTest, FuzzReplayLeavesTheTempDirectoryEmpty) {
  // The streaming-file artifacts decode through files in a scratch
  // directory under the temp directory; the replay must remove it.
  const fs::path tmp = dir_ / "tmp";
  fs::create_directories(tmp);
  const char* const old_tmpdir = std::getenv("TMPDIR");
  const std::string saved = old_tmpdir != nullptr ? old_tmpdir : "";
  ::setenv("TMPDIR", tmp.c_str(), 1);
  const auto r = run({"fuzz", "--replay", SZP_CORPUS_DIR});
  if (old_tmpdir != nullptr) {
    ::setenv("TMPDIR", saved.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  EXPECT_EQ(r.code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("replay:"), std::string::npos) << r.out;
  EXPECT_EQ(names_in(tmp), std::vector<std::string>{});
}

TEST_F(CliTest, FuzzSubcommandReportsACleanCampaign) {
  const auto r = run({"fuzz", "--seed", "99"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("0 contract violations"), std::string::npos) << r.out;
}

/// The max |error| line `szp verify` prints.
double verified_max_error(const std::string& verify_out) {
  const std::string key = "max |error|: ";
  const auto at = verify_out.find(key);
  if (at == std::string::npos) throw std::runtime_error("no max |error| line in: " + verify_out);
  return std::stod(verify_out.substr(at + key.size()));
}

TEST_F(CliTest, DoubleFieldsRoundTripInMemoryAndStreamed) {
  const auto raw = path("d.f64");
  std::vector<double> field(30 * 40);
  for (std::size_t i = 0; i < field.size(); ++i) {
    const double x = static_cast<double>(i);
    field[i] = std::sin(0.01 * x) + 1e-3 * std::cos(0.37 * x);
  }
  szp::io::write_file(raw, {reinterpret_cast<const std::uint8_t*>(field.data()),
                            field.size() * sizeof(double)});
  const double eb = 1e-6;  // below float32 resolution of O(1) values
  for (const bool stream : {false, true}) {
    const std::string tag = stream ? "streamed" : "in-memory";
    const auto arc = path("d_" + tag + ".szp");
    const auto restored = path("d_" + tag + ".out");
    std::vector<std::string> args{"compress", "-i", raw, "-o", arc, "-d", "30x40",
                                  "--eb", "1e-6", "--abs", "--double"};
    if (stream) args.insert(args.end(), {"--stream", "400"});
    auto r = run(args);
    ASSERT_EQ(r.code, 0) << tag << ": " << r.err;
    r = run({"info", "-i", arc});
    ASSERT_EQ(r.code, 0) << tag << ": " << r.err;
    EXPECT_NE(r.out.find(stream ? "3 slabs" : "float64"), std::string::npos) << tag << r.out;
    r = run({"decompress", "-i", arc, "-o", restored});
    ASSERT_EQ(r.code, 0) << tag << ": " << r.err;
    EXPECT_EQ(fs::file_size(restored), field.size() * sizeof(double)) << tag;
    r = run({"verify", "-a", raw, "-b", restored, "--double"});
    ASSERT_EQ(r.code, 0) << tag << ": " << r.err;
    EXPECT_LT(verified_max_error(r.out), eb) << tag << ": " << r.out;
  }
}

TEST_F(CliTest, DoubleInputMustBeWholeElements) {
  const auto seven = path("seven.f64");
  szp::io::write_file(seven, std::vector<std::uint8_t>(7, 0x3f));
  auto r = run({"compress", "-i", seven, "-o", path("seven.szp"), "-d", "1", "--double"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("not a whole number of elements"), std::string::npos) << r.err;
  r = run({"verify", "-a", seven, "-b", seven, "--double"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("not a whole number of elements"), std::string::npos) << r.err;

  // Five bytes are not whole float32 elements either.
  const auto five = path("five.f32");
  szp::io::write_file(five, std::vector<std::uint8_t>{'a', 'b', 'c', 'd', 'e'});
  r = run({"compress", "-i", five, "-o", path("five.szp"), "-d", "1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("not a whole number of elements"), std::string::npos) << r.err;
  r = run({"verify", "-a", five, "-b", five});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("not a whole number of elements"), std::string::npos) << r.err;
}

TEST_F(CliTest, EmptyInputIsRejected) {
  const auto empty = path("empty.f32");
  szp::io::write_file(empty, {});
  EXPECT_EQ(run({"compress", "-i", empty, "-o", path("e.szp"), "-d", "10"}).code, 1);
  EXPECT_EQ(run({"compress", "-i", empty, "-o", path("e.szp"), "-d", "10", "--double"}).code, 1);
  // Two empty fields compare equal.
  const auto r = run({"verify", "-a", empty, "-b", empty});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(verified_max_error(r.out), 0.0);
}

TEST_F(CliTest, VerifyReportsANanInTheRestoredFileAsNan) {
  // One NaN in a restored file is not a perfect match: verify prints nan
  // for max |error|, so a max-error check against the bound fails.
  const auto raw = path("n.f32");
  const auto arc = path("n.szp");
  const auto restored = path("n.out");
  std::vector<float> field(4096);
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = std::sin(0.01f * static_cast<float>(i));
  }
  write_f32(raw, field);
  auto r = run({"compress", "-i", raw, "-o", arc, "-d", "4096", "--eb", "1e-3"});
  ASSERT_EQ(r.code, 0) << r.err;
  r = run({"decompress", "-i", arc, "-o", restored});
  ASSERT_EQ(r.code, 0) << r.err;
  auto back = read_f32(restored);
  back[1234] = std::numeric_limits<float>::quiet_NaN();
  write_f32(restored, back);
  r = run({"verify", "-a", raw, "-b", restored});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("max |error|: nan\n"), std::string::npos) << r.out;
  EXPECT_TRUE(std::isnan(verified_max_error(r.out))) << r.out;
}

TEST_F(CliTest, ErrorsAreReported) {
  EXPECT_EQ(run({"compress", "-o", path("x.szp"), "-d", "10"}).code, 1);  // no -i
  EXPECT_EQ(run({"gen", "-o", path("g.f32"), "--dataset", "NOPE", "--field", "x"}).code, 1);

  // A missing input exits 1 and the error names it.
  const auto missing = path("missing.f32");
  const std::vector<std::vector<std::string>> readers{
      {"compress", "-i", missing, "-o", path("x.szp"), "-d", "10"},
      {"decompress", "-i", missing, "-o", path("x.f32")},
      {"info", "-i", missing},
      {"verify", "-a", missing, "-b", missing},
      {"bundle-list", "--bundle", missing}};
  for (const auto& args : readers) {
    const auto r = run(args);
    EXPECT_EQ(r.code, 1) << args[0] << ": " << r.out;
    EXPECT_NE(r.err.find(missing), std::string::npos) << args[0] << ": " << r.err;
  }

  // Dim mismatch against the file size.
  const auto raw = path("tiny.f32");
  write_f32(raw, std::vector<float>{1, 2, 3, 4});
  auto r = run({"compress", "-i", raw, "-o", path("t.szp"), "-d", "5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("elements"), std::string::npos);

  // So does an output that cannot be created.
  const auto unwritable = path("no_such_dir/t.szp");
  r = run({"compress", "-i", raw, "-o", unwritable, "-d", "4"});
  EXPECT_EQ(r.code, 1) << r.out;
  EXPECT_NE(r.err.find(unwritable), std::string::npos) << r.err;
}

}  // namespace
