#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numbers>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/acf_analysis.hpp"
#include "core/ftio.hpp"
#include "signal/spectrum.hpp"
#include "workloads/apps.hpp"
#include "workloads/phase_library.hpp"
#include "workloads/semisynthetic.hpp"

namespace core = ftio::core;
namespace sig = ftio::signal;
namespace wl = ftio::workloads;

namespace {

constexpr double kTau = 2.0 * std::numbers::pi;

/// Rectangular burst train: `duty` of every `period` samples at `height`.
std::vector<double> burst_train(std::size_t n, double period, double duty,
                                double height) {
  std::vector<double> x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (std::fmod(static_cast<double>(i), period) < duty) x[i] = height;
  }
  return x;
}

/// Linear ramp + sine: the trend's 1/f^2 spectral skirt dominates the
/// z-scores, so the Eq. (3) candidate rule never isolates the sine.
std::vector<double> trending_sine(std::size_t n, double slope,
                                  double amplitude, double period) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x[i] = slope * t + amplitude * std::sin(kTau * t / period);
  }
  return x;
}

}  // namespace

// ---------------------------------------------------------------------------
// Golden bits: the paper pipeline's outputs on seeded workload traces,
// pinned as IEEE-754 bit patterns. Any change to the DFT stage, the ACF
// refinement, the confidence merge, the fused prediction, the
// discretisation or the metrics shows up here as a changed hex string.
// ---------------------------------------------------------------------------

namespace {

std::string hex_bits(double x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64,
                std::bit_cast<std::uint64_t>(x));
  return buf;
}

std::string hex_bits(const std::optional<double>& x) {
  return x ? hex_bits(*x) : std::string("none");
}

/// Every pinned output of one analysis, one "field=bits" entry each.
std::string golden_fingerprint(const core::FtioResult& r) {
  std::string out;
  auto field = [&out](const char* name, const std::string& bits) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += bits;
  };
  field("f_d", hex_bits(r.dft.dominant_frequency));
  field("c_d", hex_bits(r.dft.confidence));
  field("acf", r.acf ? hex_bits(r.acf->period) : "none");
  field("refined", hex_bits(r.refined_confidence));
  field("fused_f", hex_bits(r.fused.frequency));
  field("fused_c", hex_bits(r.fused.confidence));
  field("abs_err", hex_bits(r.abstraction_error));
  field("sigma_vol", r.metrics ? hex_bits(r.metrics->sigma_vol) : "none");
  return out;
}

struct GoldenCase {
  const char* name;
  bool with_autocorrelation;
  const char* expected;
};

/// The analyses the golden table pins, by case name: fig07's three
/// semi-synthetic regimes (seeds 1-3, as `fig07_semisynthetic --seed=1`
/// builds them), LAMMPS and HACC-IO through core::detect, and the
/// Nek5000 heatmap (a bandwidth curve, not a request trace) through
/// core::analyze_bandwidth on its full and reduced windows.
core::FtioResult run_golden(std::string_view name, bool with_acf) {
  core::FtioOptions opts;
  opts.with_autocorrelation = with_acf;
  if (name.starts_with("fig07")) {
    static const std::vector<wl::PhaseTrace> library = [] {
      wl::PhaseLibraryConfig c;
      c.phase_count = 20;
      return wl::make_phase_library(c);
    }();
    wl::SemiSyntheticConfig c;
    if (name == "fig07a") {
      c.tcpu_mean = 10.4 / 4.0;
      c.seed = 1;
    } else if (name == "fig07b") {
      c.tcpu_sigma = 22.0;
      c.seed = 2;
    } else {
      c.phi = 22.0;
      c.seed = 3;
    }
    opts.sampling_frequency = 1.0;
    return core::detect(wl::generate_semisynthetic(c, library).trace, opts);
  }
  if (name == "lammps") {
    wl::LammpsConfig c;
    c.ranks = 64;
    return core::detect(wl::generate_lammps_trace(c), opts);
  }
  if (name == "haccio") {
    wl::HaccIoConfig c;
    c.ranks = 32;
    opts.candidates.tolerance = 0.55;  // fig12_haccio_offline's setting
    return core::detect(wl::generate_haccio_trace(c), opts);
  }
  const auto heatmap = wl::generate_nek5000_heatmap();
  opts.sampling_frequency = heatmap.implied_sampling_frequency();
  opts.sampling_mode = sig::SamplingMode::kBinAverage;
  if (name == "nek5000_reduced") opts.window_end = 56'000.0;
  return core::analyze_bandwidth(heatmap.bandwidth(), opts);
}

/// The expected fingerprints, exact for both supported builds: the
/// x86-64-v3 build (FTIO_X86_64_V3=ON) compiles with -ffp-contract=off,
/// so it computes the portable build's bits. A change to the arithmetic
/// of either shows up here.
constexpr GoldenCase kGoldenCases[] = {
    {"fig07a", true,
     "f_d=3fb3fbc6d664fd67 c_d=3feb77c0dc249ce6 "
     "acf=406b800000000000 refined=3fe4ff1923c42bdc "
     "fused_f=3fb3fbc6d664fd67 fused_c=3fdb77c0dc249ce6 "
     "abs_err=3f8258561e16d673 sigma_vol=3cf9c465a886321c"},
    {"fig07a", false,
     "f_d=3fb3fbc6d664fd67 c_d=3feb77c0dc249ce6 "
     "acf=none refined=3feb77c0dc249ce6 "
     "fused_f=3fb3fbc6d664fd67 fused_c=3feb77c0dc249ce6 "
     "abs_err=3f8258561e16d673 sigma_vol=3cf9c465a886321c"},
    {"fig07b", true,
     "f_d=none c_d=0000000000000000 "
     "acf=4033f33333333333 refined=0000000000000000 "
     "fused_f=none fused_c=0000000000000000 "
     "abs_err=3f61a1567ef7d8de sigma_vol=none"},
    {"fig07b", false,
     "f_d=none c_d=0000000000000000 "
     "acf=none refined=0000000000000000 "
     "fused_f=none fused_c=0000000000000000 "
     "abs_err=3f61a1567ef7d8de sigma_vol=none"},
    {"fig07c", true,
     "f_d=none c_d=0000000000000000 "
     "acf=0000000000000000 refined=0000000000000000 "
     "fused_f=none fused_c=0000000000000000 "
     "abs_err=3f2f0a44c00a6db3 sigma_vol=none"},
    {"fig07c", false,
     "f_d=none c_d=0000000000000000 "
     "acf=none refined=0000000000000000 "
     "fused_f=none fused_c=0000000000000000 "
     "abs_err=3f2f0a44c00a6db3 sigma_vol=none"},
    {"lammps", true,
     "f_d=3fa2b35799f74763 c_d=3fe22657129627e6 "
     "acf=403b99999999999a refined=3feb572153b01520 "
     "fused_f=3fa2b35799f74763 fused_c=3fe9132b894b13f3 "
     "abs_err=3fa2c37ff31b8a9f sigma_vol=3fce590ef26b1b82"},
    {"lammps", false,
     "f_d=3fa2b35799f74763 c_d=3fe22657129627e6 "
     "acf=none refined=3fe22657129627e6 "
     "fused_f=3fa2b35799f74763 fused_c=3fe22657129627e6 "
     "abs_err=3fa2c37ff31b8a9f sigma_vol=3fce590ef26b1b82"},
    {"haccio", true,
     "f_d=3fc0a1c3f1d5456d c_d=3fe191959f7db781 "
     "acf=401f47ae147ae148 refined=3feabb22754255d7 "
     "fused_f=3fc0a1c3f1d5456d fused_c=3fe86ead4467f692 "
     "abs_err=3f95b6db6daab4f5 sigma_vol=3fc9a90ba26560a3"},
    {"haccio", false,
     "f_d=3fc0a1c3f1d5456d c_d=3fe191959f7db781 "
     "acf=none refined=3fe191959f7db781 "
     "fused_f=3fc0a1c3f1d5456d fused_c=3fe191959f7db781 "
     "abs_err=3f95b6db6daab4f5 sigma_vol=3fc9a90ba26560a3"},
    {"nek5000_full", true,
     "f_d=none c_d=0000000000000000 "
     "acf=0000000000000000 refined=0000000000000000 "
     "fused_f=none fused_c=0000000000000000 "
     "abs_err=0000000000000000 sigma_vol=none"},
    {"nek5000_full", false,
     "f_d=none c_d=0000000000000000 "
     "acf=none refined=0000000000000000 "
     "fused_f=none fused_c=0000000000000000 "
     "abs_err=0000000000000000 sigma_vol=none"},
    {"nek5000_reduced", true,
     "f_d=3f2bec3a8488c786 c_d=3febd639535a1c0d "
     "acf=40e5f40000000000 refined=3fe5f65dc641112b "
     "fused_f=3f2bec3a8488c786 fused_c=3fdbd639535a1c0d "
     "abs_err=0000000000000000 sigma_vol=3fc43340a1260a2e"},
    {"nek5000_reduced", false,
     "f_d=3f2bec3a8488c786 c_d=3febd639535a1c0d "
     "acf=none refined=3febd639535a1c0d "
     "fused_f=3f2bec3a8488c786 fused_c=3febd639535a1c0d "
     "abs_err=0000000000000000 sigma_vol=3fc43340a1260a2e"},
};

}  // namespace

TEST(GoldenBits, PaperPipelineOutputsOnSeededWorkloads) {
  for (const GoldenCase& c : kGoldenCases) {
    EXPECT_EQ(golden_fingerprint(run_golden(c.name, c.with_autocorrelation)),
              c.expected)
        << c.name << (c.with_autocorrelation ? " (acf on)" : " (acf off)");
  }
}

// ---------------------------------------------------------------------------
// The pipeline equals its stages composed by hand, bit for bit
// ---------------------------------------------------------------------------

TEST(DetectionPipeline, BitIdenticalToHandRolledStages) {
  const auto x = burst_train(400, 20.0, 3.0, 10.0);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  const core::FtioResult r = core::analyze_samples(x, opts);

  // Hand-rolled paper pipeline: spectrum -> analyze_spectrum -> ACF
  // refinement -> (c_d + c_a + c_s) / 3.
  const sig::Spectrum spectrum = sig::compute_spectrum(x, 1.0);
  const core::DftAnalysis dft = core::analyze_spectrum(spectrum,
                                                       opts.candidates);
  const core::AcfAnalysis acf = core::analyze_autocorrelation(x, 1.0,
                                                              opts.acf);
  const double refined =
      dft.dominant_frequency
          ? core::merged_confidence(dft.confidence, acf, dft.period())
          : dft.confidence;

  ASSERT_TRUE(r.dft.dominant_frequency.has_value());
  ASSERT_TRUE(dft.dominant_frequency.has_value());
  // EXPECT_EQ on doubles is exact equality: the pipeline must be
  // bit-identical to its stages, not merely close.
  EXPECT_EQ(*r.dft.dominant_frequency, *dft.dominant_frequency);
  EXPECT_EQ(r.dft.confidence, dft.confidence);
  ASSERT_TRUE(r.acf.has_value());
  EXPECT_EQ(r.acf->period, acf.period);
  EXPECT_EQ(r.acf->confidence, acf.confidence);
  EXPECT_EQ(r.refined_confidence, refined);
  EXPECT_EQ(r.confidence(), r.refined_confidence);
  ASSERT_TRUE(r.fused.found());
  EXPECT_EQ(r.fused.period, r.period());
}

TEST(DetectionPipeline, WithoutAutocorrelationOnlyDftRuns) {
  const auto x = burst_train(400, 20.0, 3.0, 10.0);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.with_autocorrelation = false;
  const core::FtioResult r = core::analyze_samples(x, opts);
  EXPECT_FALSE(r.acf.has_value());
  EXPECT_EQ(r.refined_confidence, r.dft.confidence);
  ASSERT_TRUE(r.fused.found());
  EXPECT_EQ(r.fused.confidence, r.dft.confidence);
}

// ---------------------------------------------------------------------------
// The fused prediction
// ---------------------------------------------------------------------------

TEST(DetectionPipeline, FusedPredictionFollowsTheDftVerdict) {
  // The ACF refines a period but never claims one: on the trending
  // fixture the DFT stage finds nothing, so nothing is fused.
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  const core::FtioResult trend =
      core::analyze_samples(trending_sine(240, 0.8, 8.0, 20.0), opts);
  EXPECT_FALSE(trend.periodic());
  EXPECT_FALSE(trend.fused.found());
  EXPECT_EQ(trend.fused.period, 0.0);
  EXPECT_EQ(trend.fused.confidence, 0.0);

  // On a clean burst train the ACF agrees with the DFT period, and the
  // fused confidence averages the two stage confidences.
  const core::FtioResult r =
      core::analyze_samples(burst_train(400, 20.0, 3.0, 10.0), opts);
  ASSERT_TRUE(r.fused.found());
  ASSERT_TRUE(r.acf.has_value() && r.acf->found());
  EXPECT_NEAR(r.acf->period, r.period(), 0.15 * r.period());
  EXPECT_EQ(*r.fused.frequency, 1.0 / r.period());
  EXPECT_EQ(r.fused.confidence,
            std::clamp((r.dft.confidence + r.acf->confidence) / 2.0, 0.0,
                       1.0));
}
