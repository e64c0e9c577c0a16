// Synthetic data substrate tests: determinism, knob behavior, catalog
// integrity, and the whole-file I/O raw fields load through.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <random>

#include "core/analysis/madogram.hh"
#include "core/io/io.hh"
#include "data/catalog.hh"
#include "data/synthetic.hh"

namespace {

using namespace szp;
using namespace szp::data;

FieldSpec small_spec(double step = 1e-3, double impulses = 0.02, double plateau = 0.0) {
  FieldSpec s;
  s.dataset = "test";
  s.name = "field";
  s.extents = Extents::d2(64, 96);
  s.step_rel = step;
  s.impulse_density = impulses;
  s.plateau_fraction = plateau;
  return s;
}

TEST(Synthetic, DeterministicForSameSpec) {
  const auto a = generate_field(small_spec());
  const auto b = generate_field(small_spec());
  EXPECT_EQ(a, b);
}

TEST(Synthetic, DifferentNamesGiveDifferentFields) {
  auto s1 = small_spec();
  auto s2 = small_spec();
  s2.name = "other";
  EXPECT_NE(generate_field(s1), generate_field(s2));
}

TEST(Synthetic, SeedOverrideWins) {
  auto s1 = small_spec();
  s1.seed = 123;
  auto s2 = s1;
  s2.name = "different-name-same-seed";
  EXPECT_EQ(generate_field(s1), generate_field(s2));
}

TEST(Synthetic, AllValuesFinite) {
  const auto v = generate_field(small_spec(1e-2, 0.2, 0.3));
  for (const auto x : v) EXPECT_TRUE(std::isfinite(x));
}

TEST(Synthetic, StepRelControlsGradient) {
  auto smooth_spec = small_spec(1e-4, 0.0);
  auto rough_spec = small_spec(1e-2, 0.0);
  smooth_spec.extents = rough_spec.extents = Extents::d1(20000);
  const auto smooth = generate_field(smooth_spec);
  const auto rough = generate_field(rough_spec);
  const auto mean_step = [](const std::vector<float>& v) {
    double s = 0.0;
    for (std::size_t i = 1; i < v.size(); ++i) s += std::abs(v[i] - v[i - 1]);
    return s / static_cast<double>(v.size() - 1);
  };
  EXPECT_GT(mean_step(rough), 10.0 * mean_step(smooth));
}

TEST(Synthetic, PlateauCreatesExactlyConstantRegion) {
  const auto v = generate_field(small_spec(1e-3, 0.0, 0.4));
  // A plateau means the minimum value occurs many times, exactly.
  const float lo = *std::min_element(v.begin(), v.end());
  const auto at_min = static_cast<double>(std::count(v.begin(), v.end(), lo));
  EXPECT_GT(at_min / static_cast<double>(v.size()), 0.05);
}

TEST(Synthetic, ImpulseDensityControlsRoughness) {
  auto quiet = small_spec(1e-4, 0.005);
  auto busy = small_spec(1e-4, 0.15);
  quiet.extents = busy.extents = Extents::d1(50000);
  const auto count_jumps = [](const std::vector<float>& v) {
    std::size_t c = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (std::abs(v[i] - v[i - 1]) > 0.02f) ++c;
    }
    return c;
  };
  EXPECT_GT(count_jumps(generate_field(busy)), 5 * count_jumps(generate_field(quiet)));
}

TEST(Synthetic, ValueScaleAndOffsetApply)  {
  auto s = small_spec();
  s.value_offset = 100.0;
  s.value_scale = 0.5;
  const auto v = generate_field(s);
  for (const auto x : v) {
    EXPECT_GT(x, 95.0f);
    EXPECT_LT(x, 105.0f);
  }
}

// ---- Catalog ----------------------------------------------------------------

TEST(Catalog, AllSevenDatasetsBuild) {
  ASSERT_EQ(dataset_names().size(), 7u);
  for (const auto& name : dataset_names()) {
    const auto ds = make_dataset(name, 0.05);
    EXPECT_FALSE(ds.fields.empty()) << name;
    for (const auto& f : ds.fields) {
      EXPECT_EQ(f.spec.dataset, ds.name);
      EXPECT_GE(f.spec.extents.rank, 1);
      EXPECT_GT(f.spec.extents.count(), 0u);
    }
  }
}

TEST(Catalog, Cesm35FieldsMatchTableIV) {
  const auto ds = make_dataset("CESM-ATM", 0.05);
  EXPECT_EQ(ds.fields.size(), 35u);
  const auto& fsdsc = find_field(ds, "FSDSC");
  EXPECT_NEAR(fsdsc.paper_rle_cr, 26.10, 1e-9);
  EXPECT_NEAR(fsdsc.paper_vle_cr, 23.88, 1e-9);
  // The derived impulse density follows the run-budget calibration: 30%
  // of the 1/CR run budget via ~7.6 run-breaks per 2-D impulse.
  EXPECT_NEAR(fsdsc.spec.impulse_density, 0.3 / 26.10 / 7.6, 1e-9);
}

TEST(Catalog, ScalingShrinksEveryAxis) {
  const auto full = make_dataset("Nyx", 1.0);
  const auto half = make_dataset("Nyx", 0.5);
  EXPECT_EQ(full.fields[0].spec.extents.nx, 512u);
  EXPECT_EQ(half.fields[0].spec.extents.nx, 256u);
  EXPECT_EQ(half.fields[0].spec.extents.nz, 256u);
}

TEST(Catalog, UnknownNamesThrow) {
  EXPECT_THROW((void)make_dataset("NOPE", 1.0), std::invalid_argument);
  const auto ds = make_dataset("HACC", 0.01);
  EXPECT_THROW((void)find_field(ds, "missing"), std::out_of_range);
  EXPECT_THROW((void)make_dataset("HACC", 0.0), std::invalid_argument);
  EXPECT_THROW((void)make_dataset("HACC", 2.0), std::invalid_argument);
}

TEST(Catalog, SmoothFieldsAreSmootherThanRoughOnes) {
  // FSDT0A (RLE CR 43.65) must quantize smoother than PS (RLE CR 7.45).
  const auto ds = make_dataset("CESM-ATM", 0.08);
  const auto smooth = generate_field(find_field(ds, "FSDTOA").spec);
  const auto rough = generate_field(find_field(ds, "PS").spec);
  const auto m_smooth = madogram(std::span<const float>(smooth));
  const auto m_rough = madogram(std::span<const float>(rough));
  EXPECT_LT(m_smooth.abs_difference[0], m_rough.abs_difference[0] * 1.5);
}

// ---- Raw I/O ------------------------------------------------------------------

TEST(Io, F32RoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "szp_io_test.f32";
  const std::vector<float> data{1.0f, -2.5f, 3.25f, 0.0f};
  io::write_file(path, {reinterpret_cast<const std::uint8_t*>(data.data()),
                        data.size() * sizeof(float)});
  const auto bytes = io::read_file(path);
  ASSERT_EQ(bytes.size(), data.size() * sizeof(float));
  EXPECT_EQ(std::memcmp(bytes.data(), data.data(), bytes.size()), 0);
  // A raw SDRBench field is its bytes viewed as elements.
  EXPECT_EQ(FieldView(bytes, DType::kFloat32).size(), data.size());

  // Writing truncates, and an empty file reads back empty.
  io::write_file(path, {});
  EXPECT_EQ(std::filesystem::file_size(path), 0u);
  EXPECT_TRUE(io::read_file(path).empty());
  std::filesystem::remove(path);
}

TEST(Io, MissingFileThrows) {
  const std::string missing = "/nonexistent/definitely/missing.f32";
  try {
    (void)io::read_file(missing);
    ADD_FAILURE() << "read_file returned for a missing file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos) << e.what();
  }
  EXPECT_THROW(io::write_file(missing, {}), std::runtime_error);
}

}  // namespace
