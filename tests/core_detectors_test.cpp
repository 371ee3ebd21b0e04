#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/acf_analysis.hpp"
#include "core/detectors.hpp"
#include "core/ftio.hpp"
#include "engine/engine.hpp"
#include "signal/spectrum.hpp"
#include "signal/step_function.hpp"
#include "util/error.hpp"

namespace core = ftio::core;
namespace sig = ftio::signal;
namespace eng = ftio::engine;

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

core::DetectorVerdict make_verdict(std::string_view name, bool found,
                                   double period, double confidence,
                                   double weight = 1.0,
                                   unsigned capabilities = 0) {
  core::DetectorVerdict v;
  v.name = std::string(name);
  v.capabilities = capabilities;
  v.weight = weight;
  v.found = found;
  v.period = period;
  v.frequency = period > 0.0 ? 1.0 / period : 0.0;
  v.confidence = confidence;
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry default = seed pipeline, bit for bit
// ---------------------------------------------------------------------------

TEST(DetectorRegistry, DefaultSelectionBitIdenticalToSeedPipeline) {
  const auto x = burst_train(400, 20.0, 3.0, 10.0);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  const core::FtioResult r = core::analyze_samples(x, opts);

  // Hand-rolled seed pipeline: spectrum -> analyze_spectrum -> ACF
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
  // EXPECT_EQ on doubles is exact equality: the registry default must be
  // bit-identical to the seed, not merely close.
  EXPECT_EQ(*r.dft.dominant_frequency, *dft.dominant_frequency);
  EXPECT_EQ(r.dft.confidence, dft.confidence);
  ASSERT_TRUE(r.acf.has_value());
  EXPECT_EQ(r.acf->period, acf.period);
  EXPECT_EQ(r.acf->confidence, acf.confidence);
  EXPECT_EQ(r.refined_confidence, refined);
  EXPECT_EQ(r.confidence(), r.refined_confidence);

  // The verdicts mirror the selection: dft primary, acf corroborating.
  ASSERT_EQ(r.detector_verdicts.size(), 2u);
  EXPECT_EQ(r.detector_verdicts[0].name, "dft");
  EXPECT_EQ(r.detector_verdicts[1].name, "acf");
  EXPECT_NE(r.detector_verdicts[1].capabilities & core::kCapCorroborateOnly,
            0u);
  ASSERT_TRUE(r.fused.found());
  EXPECT_EQ(r.fused.period, r.period());
  EXPECT_EQ(r.fused.supporting, 2u);
}

TEST(DetectorRegistry, WithoutAutocorrelationOnlyDftRuns) {
  const auto x = burst_train(400, 20.0, 3.0, 10.0);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.with_autocorrelation = false;
  const core::FtioResult r = core::analyze_samples(x, opts);
  ASSERT_EQ(r.detector_verdicts.size(), 1u);
  EXPECT_EQ(r.detector_verdicts[0].name, "dft");
  EXPECT_FALSE(r.acf.has_value());
  EXPECT_EQ(r.refined_confidence, r.dft.confidence);
}

// ---------------------------------------------------------------------------
// Trend robustness: cfd-autoperiod on a fixture the paper pipeline misses
// ---------------------------------------------------------------------------

namespace {

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

TEST(DetectorRegistry, TrendingFixtureNeedsCfdAutoperiod) {
  const auto x = trending_sine(240, 0.8, 8.0, 20.0);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;

  const core::FtioResult seed = core::analyze_samples(x, opts);
  EXPECT_FALSE(seed.periodic());
  EXPECT_FALSE(seed.fused.found());

  core::FtioOptions with_cfd = opts;
  with_cfd.detectors.detectors = {{"dft", 1.0}, {"cfd-autoperiod", 1.0}};
  const core::FtioResult r = core::analyze_samples(x, with_cfd);
  ASSERT_EQ(r.detector_verdicts.size(), 2u);
  const core::DetectorVerdict& cfd = r.detector_verdicts[1];
  EXPECT_EQ(cfd.name, "cfd-autoperiod");
  ASSERT_TRUE(cfd.found);
  EXPECT_NEAR(cfd.period, 20.0, 1.0);
  ASSERT_TRUE(r.fused.found());
  EXPECT_NEAR(r.fused.period, 20.0, 1.0);
}

TEST(DetectorRegistry, AutoperiodValidatesSpectralHintOnAcf) {
  // On a clean burst train cfd-autoperiod agrees with the DFT.
  const auto x = burst_train(400, 20.0, 3.0, 10.0);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.detectors.detectors = {{"dft", 1.0}, {"cfd-autoperiod", 1.0}};
  const core::FtioResult r = core::analyze_samples(x, opts);
  ASSERT_EQ(r.detector_verdicts.size(), 2u);
  const core::DetectorVerdict& ap = r.detector_verdicts[1];
  ASSERT_TRUE(ap.found);
  EXPECT_NEAR(ap.period, 20.0, 1.0);
  EXPECT_GT(ap.confidence, 0.5);
  ASSERT_TRUE(r.fused.found());
  EXPECT_EQ(r.fused.supporting, 2u);
}

// ---------------------------------------------------------------------------
// Fusion semantics
// ---------------------------------------------------------------------------

TEST(Fusion, CorroborateOnlyVerdictCannotSeedPrediction) {
  std::vector<core::DetectorVerdict> verdicts;
  verdicts.push_back(make_verdict("dft", false, 0.0, 0.0));
  verdicts.push_back(make_verdict("acf", true, 20.0, 0.9, 1.0,
                                  core::kCapCorroborateOnly));
  const core::FusedPrediction fused =
      core::fuse_verdicts(verdicts, core::FusionOptions{});
  EXPECT_FALSE(fused.found());
}

TEST(Fusion, CorroborateOnlyVerdictAddsMassToCluster) {
  std::vector<core::DetectorVerdict> verdicts;
  verdicts.push_back(make_verdict("dft", true, 20.0, 0.6));
  verdicts.push_back(make_verdict("acf", true, 20.4, 0.8, 1.0,
                                  core::kCapCorroborateOnly));
  const core::FusedPrediction fused =
      core::fuse_verdicts(verdicts, core::FusionOptions{});
  ASSERT_TRUE(fused.found());
  EXPECT_DOUBLE_EQ(fused.period, 20.0);  // the seed names the period
  EXPECT_EQ(fused.supporting, 2u);
  EXPECT_DOUBLE_EQ(fused.agreement, 1.0);
  EXPECT_DOUBLE_EQ(fused.confidence, (0.6 + 0.8) / 2.0);
}

TEST(Fusion, HeaviestClusterWinsWeightedVote) {
  std::vector<core::DetectorVerdict> verdicts;
  verdicts.push_back(make_verdict("dft", true, 20.0, 0.9));
  verdicts.push_back(make_verdict("cfd-autoperiod", true, 20.4, 0.2));
  verdicts.push_back(make_verdict("plugin", true, 40.0, 0.5, 3.0));
  const core::FusedPrediction fused =
      core::fuse_verdicts(verdicts, core::FusionOptions{});
  ASSERT_TRUE(fused.found());
  EXPECT_DOUBLE_EQ(fused.period, 40.0);  // mass 1.5 beats 1.1
  EXPECT_EQ(fused.supporting, 1u);
  EXPECT_DOUBLE_EQ(fused.confidence, 1.5 / 5.0);
  EXPECT_DOUBLE_EQ(fused.agreement, 3.0 / 5.0);
}

TEST(Fusion, CorroboratedConfidenceMatchesSeedMerge) {
  // Primary found + corroborator found: exactly (c_d + c_a + c_s) / 3.
  core::AcfAnalysis acf;
  acf.candidate_periods = {19.5, 20.0, 20.5};
  acf.period = 20.0;
  acf.confidence = 0.7;
  std::vector<core::DetectorVerdict> verdicts;
  verdicts.push_back(make_verdict("dft", true, 20.0, 0.5));
  auto acf_verdict = make_verdict("acf", true, 20.0, acf.confidence, 1.0,
                                  core::kCapCorroborateOnly);
  acf_verdict.candidate_periods = acf.candidate_periods;
  verdicts.push_back(acf_verdict);
  EXPECT_EQ(core::corroborated_confidence(verdicts),
            core::merged_confidence(0.5, acf, 20.0));

  // Primary not found: its own confidence passes through.
  verdicts[0] = make_verdict("dft", false, 0.0, 0.25);
  EXPECT_EQ(core::corroborated_confidence(verdicts), 0.25);
}

// ---------------------------------------------------------------------------
// Registry surface
// ---------------------------------------------------------------------------

namespace {

class ConstantDetector final : public core::PeriodDetector {
 public:
  std::string_view name() const override { return "constant-7"; }
  unsigned capabilities() const override { return 0; }
  core::DetectorVerdict detect(const core::DetectorInput&) const override {
    core::DetectorVerdict v;
    v.name = "constant-7";
    v.found = true;
    v.period = 7.0;
    v.frequency = 1.0 / 7.0;
    v.confidence = 1.0;
    return v;
  }
};

}  // namespace

TEST(DetectorRegistry, BuiltInsAreRegistered) {
  // Exactly the three built-ins, in registration order. CustomDetector-
  // Pluggable appends to the global registry, so compare the prefix.
  const auto names = core::DetectorRegistry::global().names();
  const std::vector<std::string> builtins = {
      std::string(core::detector_names::kDft),
      std::string(core::detector_names::kAcf),
      std::string(core::detector_names::kCfdAutoperiod)};
  ASSERT_GE(names.size(), builtins.size());
  EXPECT_EQ(std::vector<std::string>(names.begin(),
                                     names.begin() + builtins.size()),
            builtins);
  for (std::size_t i = builtins.size(); i < names.size(); ++i) {
    EXPECT_EQ(names[i], "constant-7");
  }
  EXPECT_EQ(core::DetectorRegistry::global().find("lomb-scargle"), nullptr);
  EXPECT_EQ(core::DetectorRegistry::global().find("autoperiod"), nullptr);
  EXPECT_EQ(core::DetectorRegistry::global().find("no-such-detector"),
            nullptr);
}

TEST(DetectorRegistry, UnknownSelectionThrows) {
  const auto x = burst_train(64, 8.0, 2.0, 1.0);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.detectors.detectors = {{"no-such-detector", 1.0}};
  EXPECT_THROW(core::analyze_samples(x, opts), ftio::util::InvalidArgument);
}

TEST(DetectorRegistry, InvalidWeightThrows) {
  // Weights scale fusion mass and the confidence merge: a negative or
  // non-finite one would push refined_confidence outside [0, 1].
  const auto x = burst_train(400, 20.0, 3.0, 10.0);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    opts.detectors.detectors = {{"dft", bad}, {"acf", 1.0}};
    EXPECT_THROW(core::analyze_samples(x, opts), ftio::util::InvalidArgument)
        << bad;
    opts.detectors.detectors = {{"dft", 1.0}, {"acf", bad}};
    EXPECT_THROW(core::analyze_samples(x, opts), ftio::util::InvalidArgument)
        << bad;
  }
  // Weight 0 stays legal: the verdict is reported but never seeds.
  opts.detectors.detectors = {{"dft", 1.0}, {"acf", 0.0}};
  const core::FtioResult r = core::analyze_samples(x, opts);
  EXPECT_GE(r.refined_confidence, 0.0);
  EXPECT_LE(r.refined_confidence, 1.0);
}

TEST(DetectorRegistry, CustomDetectorPluggable) {
  core::DetectorRegistry::global().add(std::make_unique<ConstantDetector>());
  const auto x = burst_train(64, 8.0, 2.0, 1.0);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.detectors.detectors = {{"dft", 1.0}, {"constant-7", 0.5}};
  const core::FtioResult r = core::analyze_samples(x, opts);
  ASSERT_EQ(r.detector_verdicts.size(), 2u);
  EXPECT_EQ(r.detector_verdicts[1].name, "constant-7");
  EXPECT_DOUBLE_EQ(r.detector_verdicts[1].weight, 0.5);
  ASSERT_TRUE(r.detector_verdicts[1].found);
  EXPECT_DOUBLE_EQ(r.detector_verdicts[1].period, 7.0);
}

// ---------------------------------------------------------------------------
// Engine: registry selections stay batched and loop-identical
// ---------------------------------------------------------------------------

TEST(Engine, BatchMatchesLoopedAnalysesWithRegistrySelection) {
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.detectors.detectors = {
      {"dft", 1.0}, {"acf", 1.0}, {"cfd-autoperiod", 1.0}};

  // Three equal-length windows plus one odd size, as bandwidth curves
  // holding one sample per second.
  std::vector<std::vector<double>> signals;
  signals.push_back(burst_train(256, 16.0, 3.0, 10.0));
  signals.push_back(burst_train(256, 32.0, 5.0, 4.0));
  signals.push_back(trending_sine(256, 0.5, 6.0, 20.0));
  signals.push_back(burst_train(200, 25.0, 4.0, 8.0));
  std::vector<sig::StepFunction> curves;
  for (const auto& s : signals) {
    std::vector<double> times(s.size() + 1);
    for (std::size_t i = 0; i < times.size(); ++i) {
      times[i] = static_cast<double>(i);
    }
    curves.emplace_back(std::move(times), s);
  }

  std::vector<eng::TraceView> views;
  for (const auto& c : curves) views.push_back(eng::TraceView::of(c));
  const auto batched = eng::analyze_many(views, opts);

  ASSERT_EQ(batched.size(), curves.size());
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const core::FtioResult loop = core::analyze_bandwidth(curves[i], opts);
    EXPECT_EQ(batched[i].periodic(), loop.periodic()) << i;
    EXPECT_EQ(batched[i].refined_confidence, loop.refined_confidence) << i;
    EXPECT_EQ(batched[i].fused.found(), loop.fused.found()) << i;
    EXPECT_EQ(batched[i].fused.period, loop.fused.period) << i;
    EXPECT_EQ(batched[i].fused.confidence, loop.fused.confidence) << i;
    ASSERT_EQ(batched[i].detector_verdicts.size(),
              loop.detector_verdicts.size())
        << i;
    for (std::size_t d = 0; d < loop.detector_verdicts.size(); ++d) {
      EXPECT_EQ(batched[i].detector_verdicts[d].found,
                loop.detector_verdicts[d].found)
          << i << ":" << d;
      EXPECT_EQ(batched[i].detector_verdicts[d].period,
                loop.detector_verdicts[d].period)
          << i << ":" << d;
      EXPECT_EQ(batched[i].detector_verdicts[d].confidence,
                loop.detector_verdicts[d].confidence)
          << i << ":" << d;
    }
  }
}
