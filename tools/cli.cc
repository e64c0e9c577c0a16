#include "tools/cli.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "core/analysis/selector.hh"
#include "core/compressor.hh"
#include "core/error.hh"
#include "core/huffman/codebook.hh"
#include "core/huffman/codec.hh"
#include "core/metrics.hh"
#include "core/bundle.hh"
#include "core/codec/codec.hh"
#include "core/io/io.hh"
#include "core/predictor/lorenzo.hh"
#include "core/predictor/regression.hh"
#include "core/rle/rle.hh"
#include "core/streaming.hh"
#include "data/catalog.hh"
#include "data/synthetic.hh"
#include "lossless/lzh.hh"
#include "lossless/lzr.hh"
#include "sim/check.hh"
#include "sim/device_scan.hh"
#include "sim/histogram.hh"
#include "sim/reduce_by_key.hh"
#include "sim/sparse.hh"
#include "tools/fuzz_decode.hh"
#include "zfp/zfp.hh"

namespace szp::cli {

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;

  [[nodiscard]] bool has_flag(const std::string& f) const {
    return std::find(flags.begin(), flags.end(), f) != flags.end();
  }
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = options.find(key);
    return it == options.end() ? std::nullopt : std::optional<std::string>(it->second);
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    const auto v = get(key);
    if (!v) throw std::invalid_argument("missing required option " + key);
    return *v;
  }
};

/// What one command accepts: options that take the next argument as their
/// value, and bare flags.  A flag ending in '=' admits any text after it
/// (--fuzz-schedule=N; the command parses the text).
struct CommandOptions {
  std::vector<std::string_view> valued;
  std::vector<std::string_view> flags;
};

/// Parse `argv` (command first) against the command's table.  An option the
/// command does not take is an error naming the option and the command.
Args parse(const std::vector<std::string>& argv, const CommandOptions& accepts) {
  Args a;
  a.command = argv[0];
  const auto& valued = accepts.valued;
  const auto& flags = accepts.flags;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& tok = argv[i];
    if (tok.empty() || tok[0] != '-') {
      throw std::invalid_argument("unexpected argument '" + tok + "'");
    }
    if (std::find(valued.begin(), valued.end(), tok) != valued.end()) {
      if (i + 1 >= argv.size()) throw std::invalid_argument("option " + tok + " needs a value");
      a.options[tok] = argv[++i];
      continue;
    }
    if (std::none_of(flags.begin(), flags.end(), [&](std::string_view f) {
          return f == tok || (f.ends_with('=') && tok.starts_with(f));
        })) {
      throw std::invalid_argument("unknown option '" + tok + "' for command '" + a.command + "'");
    }
    a.flags.push_back(tok);
  }
  return a;
}

/// The one parser for floating options: the whole value is one finite
/// number (no trailing text, no inf or nan).  The error names the option.
double parse_double(const std::string& option, const std::string& s) {
  const char* const end = s.data() + s.size();
  double v = 0.0;
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument(option + " value '" + s + "' is out of range");
  }
  if (ec != std::errc() || p != end || !std::isfinite(v)) {
    throw std::invalid_argument(option + " takes a finite number, not '" + s + "'");
  }
  return v;
}

/// The one parser for integer options: decimal digits only — no sign, no
/// space, no trailing text — plus one K/M/G (binary) suffix when
/// `byte_size`, refused above `max`.  The error names the option.
std::size_t parse_uint(const std::string& option, const std::string& s, bool byte_size = false,
                       std::size_t max = std::numeric_limits<std::size_t>::max()) {
  const char* const end = s.data() + s.size();
  std::size_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), end, v);
  unsigned shift = 0;
  if (ec == std::errc() && byte_size && p + 1 == end) {
    const int unit = std::toupper(static_cast<unsigned char>(*p));
    shift = unit == 'K' ? 10 : unit == 'M' ? 20 : unit == 'G' ? 30 : 0;
    if (shift != 0) ++p;
  }
  if (ec == std::errc::result_out_of_range || (ec == std::errc() && v > (max >> shift))) {
    throw std::invalid_argument(option + " value '" + s + "' is out of range");
  }
  if (ec != std::errc() || p != end) {
    throw std::invalid_argument(option + " takes a non-negative integer" +
                                (byte_size ? " with an optional K/M/G suffix" : "") + ", not '" +
                                s + "'");
  }
  return v << shift;
}

Extents parse_dims(const std::string& spec) {
  std::vector<std::size_t> dims;
  for (std::size_t begin = 0;;) {
    const std::size_t x = spec.find('x', begin);
    const std::string part = spec.substr(begin, x - begin);
    if (part.empty()) throw std::invalid_argument("-d has an empty dimension: '" + spec + "'");
    dims.push_back(parse_uint("-d", part));
    if (x == std::string::npos) break;
    begin = x + 1;
  }
  switch (dims.size()) {
    case 1: return Extents::d1(dims[0]);
    case 2: return Extents::d2(dims[0], dims[1]);
    case 3: return Extents::d3(dims[0], dims[1], dims[2]);
    default: throw std::invalid_argument("-d takes 1-3 dimensions, not '" + spec + "'");
  }
}

/// The -d spelling parse_dims reads back as `e`, rank included.
std::string format_dims(const Extents& e) {
  std::string s = std::to_string(e.nx);
  if (e.rank >= 2) s = std::to_string(e.ny) + "x" + s;
  if (e.rank >= 3) s = std::to_string(e.nz) + "x" + s;
  return s;
}

/// Codec names come from the codec table (LosslessCodec::name()); "auto"
/// is the one name the table does not hold.
Workflow parse_workflow(const std::string& s) {
  if (s == "auto") return Workflow::kAuto;
  for (const pipeline::LosslessCodec* codec : pipeline::codecs()) {
    if (s == codec->name()) return codec->id();
  }
  throw std::invalid_argument("unknown codec '" + s + "'");
}

const char* workflow_name(Workflow wf) {
  return wf == Workflow::kAuto ? "auto" : pipeline::codec(wf).name();
}

PredictorKind parse_predictor(const std::string& s) {
  if (s == "lorenzo") return PredictorKind::kLorenzo;
  if (s == "regression") return PredictorKind::kRegression;
  if (s == "interpolation") return PredictorKind::kInterpolation;
  throw std::invalid_argument("unknown predictor '" + s + "'");
}

/// Run `fn` with the simulated-GPU checker active when the user passed
/// --check / --check=word (or enabled it via SZP_SIM_CHECK), and/or with
/// schedule fuzzing when --fuzz-schedule[=N] was given (or
/// SZP_SIM_FUZZ_SCHEDULE); print the findings and fold them into the exit
/// code (0 clean, 3 when the checker fired).
int maybe_checked(const Args& a, std::ostream& out, const std::function<int()>& fn) {
  std::optional<sim::checked::Mode> want_mode;
  if (a.has_flag("--check=word")) {
    want_mode = sim::checked::Mode::kWord;
  } else if (a.has_flag("--check")) {
    want_mode = sim::checked::Mode::kInterval;
  }

  std::optional<int> want_fuzz;
  if (a.has_flag("--fuzz-schedule")) want_fuzz = 4;
  for (const std::string& f : a.flags) {
    if (f.rfind("--fuzz-schedule=", 0) == 0) {
      const auto n = parse_uint("--fuzz-schedule", f.substr(std::strlen("--fuzz-schedule=")),
                                false, std::numeric_limits<int>::max());
      if (n == 0) throw std::invalid_argument("--fuzz-schedule needs a positive count");
      want_fuzz = static_cast<int>(n);
    }
  }

  if (!want_mode && !want_fuzz && !sim::checked::enabled() &&
      sim::checked::fuzz_schedules() == 0) {
    return fn();
  }

  // Env-selected settings stay; explicit flags override them for this run.
  sim::checked::ScopedMode mode_guard(want_mode.value_or(sim::checked::mode()));
  sim::checked::ScopedFuzz fuzz_guard(want_fuzz.value_or(sim::checked::fuzz_schedules()));
  const int rc = fn();
  out << sim::checked::report_text();
  if (rc != 0) return rc;
  return sim::checked::current_report().clean() ? 0 : 3;
}

/// Input/output paths accept the classic -i/-o or the long --in/--out.
std::string require_path(const Args& a, const char* short_opt, const char* long_opt) {
  if (const auto v = a.get(short_opt)) return *v;
  if (const auto v = a.get(long_opt)) return *v;
  throw std::invalid_argument(std::string("missing required option ") + short_opt + " (or " +
                              long_opt + ")");
}

/// The streaming knobs shared by both directions of the out-of-core path.
StreamingConfig streaming_config(const Args& a) {
  StreamingConfig scfg;
  scfg.use_mmap = !a.has_flag("--no-mmap");
  if (const auto workers = a.get("--workers")) scfg.workers = parse_uint("--workers", *workers);
  if (const auto budget = a.get("--memory-budget")) {
    scfg.memory_budget = parse_uint("--memory-budget", *budget, true);
  }
  return scfg;
}

/// Element type of the raw field files compress and verify read.
DType field_dtype(const Args& a) {
  return a.has_flag("--double") ? DType::kFloat64 : DType::kFloat32;
}

int cmd_compress(const Args& a, std::ostream& out) {
  const auto in_path = require_path(a, "-i", "--in");
  const auto out_path = require_path(a, "-o", "--out");
  const Extents ext = parse_dims(a.require("-d"));

  CompressConfig cfg;
  if (const auto psnr = a.get("--psnr")) {
    cfg.eb = ErrorBound::psnr(parse_double("--psnr", *psnr));
  } else {
    const double eb = parse_double("--eb", a.get("--eb").value_or("1e-3"));
    cfg.eb = a.has_flag("--abs") ? ErrorBound::absolute(eb) : ErrorBound::relative(eb);
  }
  // --codec is the canonical spelling now that the lossless tier is
  // pluggable; --workflow stays as the historical alias.
  const auto codec = a.get("--codec");
  cfg.workflow = parse_workflow(codec ? *codec : a.get("--workflow").value_or("auto"));
  cfg.predictor = parse_predictor(a.get("--predictor").value_or("lorenzo"));

  const auto stream = a.get("--stream");
  if (stream || a.get("--memory-budget")) {
    // Slab container, file to file: the field streams straight from the
    // input file through the bounded slab pipeline into the output
    // container, never materialized in memory (peak residency capped by
    // --memory-budget when given).
    StreamingConfig scfg = streaming_config(a);
    scfg.base = cfg;
    if (stream) scfg.max_slab_elems = parse_uint("--stream", *stream);
    const auto stats =
        StreamingCompressor(scfg).compress_file(in_path, out_path, ext, field_dtype(a));
    out << "streamed " << stats.slabs.size() << " slabs (" << stats.workers_used
        << " workers) file-to-file\n";
    out << "peak resident: " << stats.peak_resident_bytes << " bytes (budget "
        << scfg.memory_budget << ")\n";
    out << "compressed " << ext.count() << " values -> " << stats.compressed_bytes
        << " bytes (ratio " << stats.ratio << "x)\n";
    return 0;
  }

  const auto raw = io::read_file(in_path);
  const FieldView field(raw, field_dtype(a));
  if (field.size() != ext.count()) {
    throw std::runtime_error("file holds " + std::to_string(field.size()) +
                             " elements but dims describe " + std::to_string(ext.count()));
  }
  const auto c = Compressor(cfg).compress(field, ext);
  out << "workflow: " << workflow_name(c.stats.workflow_used)
      << "  outliers: " << c.stats.outlier_count << "\n";
  io::write_file(out_path, c.bytes);
  out << "compressed " << ext.count() << " values -> " << c.bytes.size() << " bytes (ratio "
      << c.stats.ratio << "x)\n";
  return 0;
}

int cmd_decompress(const Args& a, std::ostream& out) {
  const auto in_path = require_path(a, "-i", "--in");
  const auto out_path = require_path(a, "-o", "--out");

  // Containers and single archives are distinguished by magic.  A container
  // streams slab by slab, file to file; a bare archive has no slab
  // structure to stream, so it decodes in memory.
  std::array<std::uint8_t, 4> magic{};
  if (const io::FileFieldSource probe(in_path); probe.size_bytes() >= magic.size()) {
    probe.read_at(0, magic);
  }
  if (std::memcmp(magic.data(), "SZPC", 4) == 0) {
    const StreamingConfig scfg = streaming_config(a);
    const auto info = StreamingCompressor::decompress_file(in_path, out_path, scfg);
    out << "streamed " << info.stats.slabs.size() << " slabs (" << info.stats.workers_used
        << " workers) file-to-file\n";
    out << "peak resident: " << info.stats.peak_resident_bytes << " bytes (budget "
        << scfg.memory_budget << ")\n";
    out << "decompressed " << info.stats.compressed_bytes << " bytes -> "
        << info.stats.original_bytes << " bytes\n";
    return 0;
  }
  if (a.get("--memory-budget")) out << "note: not an SZPC container; --memory-budget ignored\n";

  const auto bytes = io::read_file(in_path);
  const auto d = Compressor::decompress(bytes);
  io::write_file(out_path, d.bytes());
  out << "decompressed " << bytes.size() << " bytes -> " << d.bytes().size() << " bytes\n";
  return 0;
}

int cmd_info(const Args& a, std::ostream& out) {
  const auto bytes = io::read_file(a.require("-i"));
  if (bytes.size() >= 4 && std::memcmp(bytes.data(), "SZPC", 4) == 0) {
    out << "szp streaming container, " << StreamingCompressor::slab_count(bytes)
        << " slabs, " << bytes.size() << " bytes\n";
    return 0;
  }
  const auto info = Compressor::inspect(bytes);
  out << "szp archive: rank " << info.extents.rank << ", dims " << info.extents.nz << "x"
      << info.extents.ny << "x" << info.extents.nx << " (z*y*x), "
      << (info.dtype == DType::kFloat32 ? "float32" : "float64") << "\n";
  out << "workflow: " << workflow_name(info.workflow) << ", predictor: "
      << (info.predictor == PredictorKind::kLorenzo       ? "lorenzo"
          : info.predictor == PredictorKind::kRegression  ? "regression"
                                                          : "interpolation")
      << ", quantizer capacity: " << info.capacity << "\n";
  out << "absolute error bound: " << info.eb_abs << "\n";
  out << "compressed size: " << bytes.size() << " bytes (ratio "
      << static_cast<double>(info.extents.count() * dtype_size(info.dtype)) /
             static_cast<double>(bytes.size())
      << "x)\n";
  return 0;
}

int cmd_gen(const Args& a, std::ostream& out) {
  const auto out_path = a.require("-o");
  const auto dataset = a.require("--dataset");
  const auto field = a.require("--field");
  const double scale = parse_double("--scale", a.get("--scale").value_or("0.25"));

  const auto ds = data::make_dataset(dataset, scale);
  const auto& f = data::find_field(ds, field);
  const auto values = data::generate_field(f.spec);
  io::write_file(out_path, {reinterpret_cast<const std::uint8_t*>(values.data()),
                            values.size() * sizeof(float)});
  const Extents& e = f.spec.extents;
  out << "generated " << dataset << "/" << field << ": dims " << e.nz << "x" << e.ny << "x"
      << e.nx << " (" << values.size() * 4 / (1 << 20) << " MB) -> " << out_path << "\n";
  out << "hint: szp compress -i " << out_path << " -o field.szp -d " << format_dims(e)
      << " --eb 1e-3\n";
  return 0;
}

int cmd_bundle_add(const Args& a, std::ostream& out) {
  const auto bundle_path = a.require("--bundle");
  const auto name = a.require("--name");
  const auto archive = io::read_file(a.require("-i"));

  Bundle bundle;
  if (std::filesystem::exists(bundle_path)) {
    bundle = Bundle::deserialize(io::read_file(bundle_path));
  }
  bundle.add(name, archive);
  io::write_file(bundle_path, bundle.serialize());
  out << "bundle " << bundle_path << ": " << bundle.size() << " field(s)\n";
  return 0;
}

/// Shared --tolerant loader: salvage what verifies, warn about the rest.
Bundle load_bundle(const Args& a, std::ostream& out) {
  const auto bytes = io::read_file(a.require("--bundle"));
  if (!a.has_flag("--tolerant")) {
    return Bundle::deserialize(bytes);
  }
  auto salvage = Bundle::deserialize_tolerant(bytes);
  if (!salvage.container_crc_ok) {
    out << "warning: bundle checksum mismatch; salvaging per-entry\n";
  }
  for (const auto& name : salvage.corrupt) {
    out << "warning: corrupt entry '" << name << "' skipped\n";
  }
  return std::move(salvage.bundle);
}

int cmd_bundle_list(const Args& a, std::ostream& out) {
  const auto bundle = load_bundle(a, out);
  for (const auto& e : bundle.entries()) {
    out << e.name << "\t" << e.compressed_bytes << " bytes\n";
  }
  out << bundle.size() << " field(s)\n";
  return 0;
}

int cmd_bundle_extract(const Args& a, std::ostream& out) {
  const auto bundle = load_bundle(a, out);
  const auto name = a.require("--name");
  io::write_file(a.require("-o"), bundle.archive(name));
  out << "extracted '" << name << "' (" << bundle.archive(name).size() << " bytes)\n";
  return 0;
}

int cmd_fuzz(const Args& a, std::ostream& out) {
  if (const auto replay_dir = a.get("--replay")) {
    const auto res = fuzz::replay(*replay_dir, out);
    return res.ok() ? 0 : 1;
  }
  fuzz::FuzzConfig cfg;
  if (const auto rounds = a.get("--rounds")) {
    cfg.rounds = static_cast<int>(
        parse_uint("--rounds", *rounds, false, std::numeric_limits<int>::max()));
  }
  if (const auto seed = a.get("--seed")) cfg.seed = parse_uint("--seed", *seed);
  if (const auto corpus = a.get("--corpus")) cfg.corpus_dir = *corpus;
  cfg.verbose = a.has_flag("-v") || a.has_flag("--verbose");
  if (cfg.rounds <= 0) throw std::invalid_argument("--rounds needs a positive count");
  const auto res = fuzz::run(cfg, out);
  return res.ok() ? 0 : 1;
}

int cmd_verify(const Args& a, std::ostream& out) {
  const auto a_bytes = io::read_file(a.require("-a"));
  const auto b_bytes = io::read_file(a.require("-b"));
  const FieldView x(a_bytes, field_dtype(a));
  const FieldView y(b_bytes, field_dtype(a));
  if (x.size() != y.size()) {
    throw std::runtime_error("files hold different element counts (" + std::to_string(x.size()) +
                             " vs " + std::to_string(y.size()) + ")");
  }
  const auto m = x.visit([&]<typename T>(std::span<const T> xs) {
    return compare_fields(xs, std::span<const T>(static_cast<const T*>(y.data()), y.size()));
  });
  out << "max |error|: " << m.max_abs_error << "\n";
  out << "MSE:         " << m.mse << "\n";
  out << "PSNR:        " << m.psnr_db << " dB\n";
  out << "NRMSE:       " << m.nrmse << "\n";
  out << "value range: " << m.value_range << "\n";
  return 0;
}

/// Canned workload behind `szp analyze`: every checked-launch kernel in the
/// codebase runs at least once, at sizes that make each grid multi-block, so
/// the contract registry holds a verdict for the complete kernel inventory.
void analyze_suite() {
  const QuantConfig qcfg;
  const double eb = 1e-3;

  // --- Lorenzo + regression over a 3-D field (8x8x8 chunks -> 2x2x2 grid).
  const Extents e3 = Extents::d3(12, 10, 9);
  std::vector<float> field(e3.count());
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = std::sin(0.05f * static_cast<float>(i));
  }
  const auto lc = lorenzo_construct<float>(field, e3, eb, qcfg);
  std::vector<float> rec(e3.count());
  lorenzo_reconstruct<float>({lc.quant.data(), lc.quant.size()}, lc.outliers, e3, eb,
                             qcfg.radius(), std::span<float>(rec));
  const auto lv =
      lorenzo_construct<float>(field, e3, eb, qcfg, OutlierScheme::kValue,
                               ConstructVariant::kBaseline);
  std::vector<qdiff_t> lv_dense(e3.count(), 0);
  sim::scatter_add(lv.outliers, std::span<qdiff_t>(lv_dense));
  lorenzo_reconstruct_coarse<float>({lv.quant.data(), lv.quant.size()},
                                    {lv_dense.data(), lv_dense.size()}, e3, eb, qcfg,
                                    std::span<float>(rec));

  const auto rg = regression_construct<float>(field, e3, eb, qcfg);
  regression_reconstruct<float>({rg.quant.data(), rg.quant.size()}, rg.outliers,
                                rg.coefficients, e3, eb, qcfg, std::span<float>(rec));

  // --- 1-D symbol pipeline: histogram, Huffman (gap-strided and plain),
  // scans, RLE / reduce_by_key.  Small tiles keep every grid multi-block
  // without a large workload.
  const std::size_t n = 20000;
  std::vector<quant_t> syms(n);
  for (std::size_t i = 0; i < n; ++i) {
    syms[i] = static_cast<quant_t>(512 + (i / 97) % 16);
  }
  const auto freq = sim::device_histogram(std::span<const quant_t>(syms), qcfg.capacity, 4096);
  const auto book = HuffmanCodebook::build(freq);
  const auto plain = huffman_encode(syms, book, 1024, HuffmanEncVariant::kOptimized, 0);
  (void)huffman_decode(plain, book);
  const auto gapped = huffman_encode(syms, book, 1024, HuffmanEncVariant::kOptimized, 256);
  (void)huffman_decode(gapped, book);

  (void)rle_encode(syms);  // reduce_by_key/tile_runs (single tile at this n)
  std::vector<quant_t> runs(100000);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i] = static_cast<quant_t>(i / 1000);
  }
  (void)rle_decode(rle_encode(runs));  // multi-tile runs + rle_decode/expand

  std::vector<std::uint64_t> lens(n / 4), offs(n / 4);
  for (std::size_t i = 0; i < lens.size(); ++i) lens[i] = i % 13;
  sim::device_exclusive_scan(std::span<const std::uint64_t>(lens),
                             std::span<std::uint64_t>(offs), 512);

  // --- ZFP at both grid shapes (1-D linear-ish and genuinely 3-D).
  const Extents z3 = Extents::d3(9, 9, 9);
  std::vector<float> zfield(z3.count());
  for (std::size_t i = 0; i < zfield.size(); ++i) {
    zfield[i] = std::cos(0.1f * static_cast<float>(i));
  }
  zfp::ZfpConfig zcfg;
  (void)zfp::zfp_decompress(zfp::zfp_compress(zfield, z3, zcfg).bytes);
  const Extents z1 = Extents::d1(100);
  std::vector<float> zline(zfield.begin(), zfield.begin() + 100);
  (void)zfp::zfp_decompress(zfp::zfp_compress(zline, z1, zcfg).bytes);

  // --- LZ family (tokenize + frequency kernels + both entropy backends).
  std::vector<std::uint8_t> text(40000);
  for (std::size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<std::uint8_t>("abcabcabd"[i % 9] + (i / 9000));
  }
  (void)lossless::lzh_decompress(lossless::lzh_compress(text));
  (void)lossless::lzr_decompress(lossless::lzr_compress(text));

  // --- Pluggable codec tier: round-trip through every workflow that packs
  // quant codes into bytes, so codec/quant_pack and codec/quant_unpack (and
  // each codec's encode/decode stages) register traffic rows.
  const Extents ce = Extents::d1(20000);
  std::vector<float> cfield(ce.count());
  for (std::size_t i = 0; i < cfield.size(); ++i) {
    cfield[i] = std::sin(0.02f * static_cast<float>(i));
  }
  for (const Workflow wf : {Workflow::kLz77, Workflow::kLzh, Workflow::kLzr,
                            Workflow::kRans}) {
    CompressConfig ccfg;
    ccfg.eb = ErrorBound::absolute(1e-3);
    ccfg.workflow = wf;
    (void)Compressor::decompress(Compressor(ccfg).compress(cfield, ce).bytes);
  }
}

/// `szp analyze --codecs`: run the cost-model selector over canned quant-code
/// histograms spanning the compressibility regimes and print the full score
/// table — every codec, best first — for each.  The histograms are
/// fixed, so the output is deterministic.
void codec_score_tables(std::ostream& out) {
  struct Scenario {
    const char* name;
    double p1;  ///< mass on the dominant (zero-difference) symbol
  };
  // p1 sweeps from "every neighbor differs" to "one long plateau".
  constexpr Scenario kScenarios[] = {
      {"rough (p1=0.50)", 0.50},
      {"mixed (p1=0.90)", 0.90},
      {"smooth (p1=0.99)", 0.99},
      {"plateau (p1=0.9999)", 0.9999},
  };
  constexpr std::uint64_t kTotal = 1000000;

  out << "codec cost-model score tables (1M f32 quant codes, V100 model)\n";
  for (const auto& sc : kScenarios) {
    std::vector<std::uint64_t> freq(1024, 0);
    freq[512] = static_cast<std::uint64_t>(sc.p1 * static_cast<double>(kTotal));
    const std::uint64_t rest = kTotal - freq[512];
    for (int k = 1; k <= 4; ++k) {
      freq[512 + k] = rest / 8;
      freq[512 - k] = rest / 8;
    }
    const auto d = select_workflow(freq, sizeof(float));
    out << "\n" << sc.name << "  (H=" << std::fixed << std::setprecision(3)
        << d.stats.entropy_bits
        << " bits, huffman<b>=" << std::max(1.0, d.stats.avg_bits_lower()) << ")\n";
    out << "  codec     <b>est   fixed_B   ratio_est   enc_ms    dec_ms    score\n";
    for (const auto& s : d.scores) {
      out << "  " << std::left << std::setw(9) << s.name << std::right
          << std::setw(7) << std::setprecision(3) << s.est_bits_per_symbol << "  "
          << std::setw(8) << std::setprecision(0) << s.est_fixed_bytes << "  "
          << std::setw(10) << std::setprecision(2) << s.est_ratio << "  "
          << std::setw(8) << std::setprecision(4) << s.modeled_encode_seconds * 1e3 << "  "
          << std::setw(8) << s.modeled_decode_seconds * 1e3 << "  "
          << std::setw(7) << s.score << "\n";
    }
    out << "  -> selected: " << workflow_name(d.workflow) << "\n";
  }
  out << std::defaultfloat << std::setprecision(6);
}

int cmd_analyze(const Args& a, std::ostream& out) {
  if (a.has_flag("--codecs")) {
    codec_score_tables(out);
    return 0;
  }
  // Interval-tier checking for the whole suite: every launch is proved (or
  // honestly falls back) and its observed footprint is cross-validated
  // against the declaration — including the statically derived traffic
  // volumes, which accumulate per kernel while checking is on.
  sim::checked::ScopedMode mode_guard(sim::checked::Mode::kInterval);
  sim::checked::reset();
  sim::contract::reset_registry();
  sim::traffic::reset_registry();

  analyze_suite();

  out << sim::contract::verdict_table_text();
  const bool want_traffic = a.has_flag("--traffic");
  const bool want_roofline = a.has_flag("--roofline");
  if (want_traffic) out << sim::traffic::traffic_table_text();
  if (want_roofline) out << sim::traffic::roofline_table_text(sim::v100());
  out << sim::checked::report_text();

  // Traffic coverage: every kernel the suite exercised must have derived
  // nonzero volumes — a zero or absent row means a contract whose clauses
  // the analyzer cannot see traffic through.
  bool uncovered = false;
  if (want_traffic || want_roofline) {
    const auto traffic_rows = sim::traffic::registry_snapshot();
    for (const auto& v : sim::contract::registry_snapshot()) {
      const auto it =
          std::find_if(traffic_rows.begin(), traffic_rows.end(),
                       [&](const auto& t) { return t.kernel == v.kernel; });
      if (it == traffic_rows.end() || it->bytes_read == 0 || it->bytes_written == 0) {
        out << "TRAFFIC-UNCOVERED: kernel '" << v.kernel
            << "' has no nonzero derived read+write volume\n";
        uncovered = true;
      }
    }
  }

  return sim::checked::current_report().clean() && !uncovered ? 0 : 3;
}

void usage(std::ostream& err) {
  err << "szp — error-bounded lossy compressor for scientific data (cuSZ+ reproduction)\n"
         "usage:\n"
         "  szp compress   -i in.f32 -o out.szp -d ZxYxX [--eb 1e-3] [--abs]\n"
         "                 [--codec auto|huffman|rle|rle+vle|rans|lz77|lzh|lzr]\n"
         "                 [--predictor lorenzo|regression|interpolation] [--double]\n"
         "                 [--stream N] [--workers N]\n"
         "                 [--memory-budget BYTES[K|M|G]] [--no-mmap]\n"
         "                 [--check | --check=word] [--fuzz-schedule[=N]]\n"
         "  szp decompress -i in.szp -o out.f32 [--workers N]\n"
         "                 [--memory-budget BYTES[K|M|G]] [--no-mmap]\n"
         "                 [--check | --check=word] [--fuzz-schedule[=N]]\n"
         "  szp info       -i in.szp\n"
         "  szp gen        -o out.f32 --dataset CESM-ATM --field FSDSC [--scale 0.25]\n"
         "  szp verify     -a original.f32 -b restored.f32 [--double]\n"
         "  szp bundle-add     --bundle snap.szb --name VAR -i field.szp\n"
         "  szp bundle-list    --bundle snap.szb [--tolerant]\n"
         "  szp bundle-extract --bundle snap.szb --name VAR -o field.szp [--tolerant]\n"
         "  szp fuzz           [--rounds N] [--seed S] [--corpus DIR] [-v]\n"
         "  szp fuzz           --replay DIR\n"
         "  szp analyze    [--traffic] [--roofline] [--codecs]\n"
         "compress also accepts --psnr TARGET_DB in place of --eb, and\n"
         "--workflow as a historical alias for --codec.  --codec auto (the\n"
         "default) ranks every lossless codec with the cost model\n"
         "and picks the best under the ratio/throughput objective.\n"
         "--tolerant salvages the intact entries of a corrupt bundle (warnings list\n"
         "the damaged ones).  fuzz mutates round-trip archives of every format and\n"
         "verifies each decoder rejects corruption with a clean error (exit 1 if the\n"
         "contract is violated).  --corpus DIR saves one mutant per novel rejection\n"
         "site (DecodeError kind x segment) as a regression artifact, plus the\n"
         "smallest tail-truncated prefix that still reproduces the verdict (as\n"
         "KIND__SEGMENT__min.szpf); --replay DIR re-decodes a committed corpus and\n"
         "fails on any verdict drift.\n"
         "A corrupt or truncated input archive exits with 4.  --stream N (at\n"
         "most N elements per slab) or --memory-budget writes a slab container,\n"
         "and decompress reads any container, file to file through the slab\n"
         "pipeline: the field is never materialized in memory.  --workers N\n"
         "sets the slab worker-pool size in both directions (default: the\n"
         "OpenMP thread budget; 1 runs slabs one at a time); the container\n"
         "bytes never depend on it.  --memory-budget BYTES (K/M/G suffixes\n"
         "accepted; --in/--out work as aliases for -i/-o) sizes slabs for a\n"
         "fixed four-worker model, so a budgeted container is the same on any\n"
         "machine, then narrows the run's workers and queue window so peak\n"
         "residency stays within the budget (refused with a clear error when\n"
         "even one single-plane slab cannot fit); the container bytes are\n"
         "identical to the in-memory API's under the same config.  Ingest uses\n"
         "mmap when available; --no-mmap forces positional reads through\n"
         "budget-metered staging buffers.  Integer options take digits only;\n"
         "--eb, --psnr and --scale take one finite number, nothing after it.  A\n"
         "command exits 1 on an option it does not take.\n"
         "--check replays the run under the simulated-GPU race & bounds checker\n"
         "(exit 3 if violations are found); SZP_SIM_CHECK=1 enables it globally.\n"
         "--check=word upgrades to word-granular shadow memory (racecheck-style\n"
         "intra-block hazard detection; SZP_SIM_CHECK=word globally).\n"
         "--fuzz-schedule[=N] replays every multi-block kernel under N perturbed\n"
         "block orders and reports any output divergence (SZP_SIM_FUZZ_SCHEDULE=N).\n"
         "analyze runs a canned workload over every simulated-GPU kernel under\n"
         "interval checking and prints the footprint-contract verdict per kernel:\n"
         "proved (cross-block disjointness + bounds discharged statically) or\n"
         "unproved-fallback-dynamic (reason printed).  A verdict is evidence only:\n"
         "--check and --check=word check every launch whatever it says.  Exit 3\n"
         "if the checker fired.  --traffic adds the statically derived per-kernel\n"
         "byte-volume & coalescing table (from the same contracts); --roofline\n"
         "classifies each kernel bandwidth- vs compute-bound against the V100\n"
         "DeviceSpec.  Either flag also fails (exit 3) when a kernel has no\n"
         "nonzero derived volumes.\n"
         "analyze --codecs instead prints the selector's deterministic score\n"
         "table — every lossless codec ranked by the cost model —\n"
         "over canned quant-code histograms spanning the compressibility\n"
         "regimes (rough through plateau).\n";
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  using Handler = int (*)(const Args&, std::ostream&);
  struct Command {
    std::string_view name;
    Handler handler;
    CommandOptions accepts;
  };
  const auto help = [](const Args&, std::ostream& o) {
    usage(o);
    return 0;
  };
  // compress and decompress run under maybe_checked(), so they take its flags.
  const Command commands[] = {
      {"compress",
       [](const Args& a, std::ostream& o) {
         return maybe_checked(a, o, [&] { return cmd_compress(a, o); });
       },
       {{"-i", "-o", "--in", "--out", "-d", "--eb", "--psnr", "--codec", "--workflow",
         "--predictor", "--stream", "--workers", "--memory-budget"},
        {"--abs", "--double", "--no-mmap", "--check", "--check=word", "--fuzz-schedule",
         "--fuzz-schedule="}}},
      {"decompress",
       [](const Args& a, std::ostream& o) {
         return maybe_checked(a, o, [&] { return cmd_decompress(a, o); });
       },
       {{"-i", "-o", "--in", "--out", "--workers", "--memory-budget"},
        {"--no-mmap", "--check", "--check=word", "--fuzz-schedule", "--fuzz-schedule="}}},
      {"analyze", cmd_analyze, {{}, {"--traffic", "--roofline", "--codecs"}}},
      {"info", cmd_info, {{"-i"}, {}}},
      {"gen", cmd_gen, {{"-o", "--dataset", "--field", "--scale"}, {}}},
      {"verify", cmd_verify, {{"-a", "-b"}, {"--double"}}},
      {"bundle-add", cmd_bundle_add, {{"--bundle", "--name", "-i"}, {}}},
      {"bundle-list", cmd_bundle_list, {{"--bundle"}, {"--tolerant"}}},
      {"bundle-extract", cmd_bundle_extract, {{"--bundle", "--name", "-o"}, {"--tolerant"}}},
      {"fuzz", cmd_fuzz, {{"--rounds", "--seed", "--corpus", "--replay"}, {"-v", "--verbose"}}},
      {"help", help, {}},
      {"--help", help, {}},
      {"-h", help, {}},
  };
  try {
    if (args.empty()) throw std::invalid_argument("no command given");
    for (const Command& c : commands) {
      if (c.name == args[0]) return c.handler(parse(args, c.accepts), out);
    }
    err << "unknown command '" << args[0] << "'\n";
    usage(err);
    return 2;
  } catch (const DecodeError& e) {
    err << "error: " << e.what() << "\n";
    return 4;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace szp::cli
