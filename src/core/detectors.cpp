#include "core/detectors.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/ftio.hpp"
#include "signal/autocorrelation.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace ftio::core {

namespace {

DetectorVerdict verdict_shell(const PeriodDetector& detector) {
  DetectorVerdict v;
  v.name = std::string(detector.name());
  v.capabilities = detector.capabilities();
  return v;
}

void set_period(DetectorVerdict& v, double period) {
  if (period <= 0.0) return;
  v.found = true;
  v.period = period;
  v.frequency = 1.0 / period;
}

// ---------------------------------------------------------------------------
// dft: the paper's Sec. II-B outlier stage, unchanged — the registry's
// default primary.
// ---------------------------------------------------------------------------

class DftDetector final : public PeriodDetector {
 public:
  std::string_view name() const override { return detector_names::kDft; }
  unsigned capabilities() const override { return 0; }
  DetectorVerdict detect(const DetectorInput& input) const override {
    DetectorVerdict v = verdict_shell(*this);
    const CandidateOptions& copts = input.options->candidates;
    DftAnalysis analysis =
        input.spectrum != nullptr
            ? analyze_spectrum(*input.spectrum, copts)
            : analyze_spectrum(ftio::signal::compute_spectrum(
                                   input.samples, input.sampling_frequency),
                               copts);
    if (analysis.dominant_frequency) {
      set_period(v, analysis.period());
    }
    v.confidence = analysis.confidence;
    for (const auto& c : analysis.candidates) {
      if (!c.harmonic_suppressed && c.frequency > 0.0) {
        v.candidate_periods.push_back(1.0 / c.frequency);
      }
    }
    v.dft = std::move(analysis);
    return v;
  }
};

// ---------------------------------------------------------------------------
// acf: the Sec. II-C refinement as a corroborate-only detector — it
// scores and refines a primary period but never claims periodicity on
// its own, exactly the role it has in the paper.
// ---------------------------------------------------------------------------

class AcfDetector final : public PeriodDetector {
 public:
  std::string_view name() const override { return detector_names::kAcf; }
  unsigned capabilities() const override { return kCapCorroborateOnly; }
  DetectorVerdict detect(const DetectorInput& input) const override {
    DetectorVerdict v = verdict_shell(*this);
    const AcfOptions& aopts = input.options->acf;
    AcfAnalysis analysis =
        input.acf != nullptr
            ? analyze_autocorrelation_prepared(*input.acf,
                                               input.sampling_frequency, aopts)
            : analyze_autocorrelation(input.samples, input.sampling_frequency,
                                      aopts);
    if (analysis.found()) {
      set_period(v, analysis.period);
    }
    v.confidence = analysis.confidence;
    v.candidate_periods = analysis.candidate_periods;
    v.acf = std::move(analysis);
    return v;
  }
};

// ---------------------------------------------------------------------------
// cfd-autoperiod (Vlachos et al.'s autoperiod on the linearly detrended
// signal): spectral hints validated on the ACF — a hint at bin k must land
// on an ACF hill strictly inside the lag range (N/(k+1), N/(k-1)), which
// rejects spectral-leakage hints that have no time-domain repetition
// behind them. Detrending and clustering adjacent-bin hints first make it
// robust on trending traces.
// ---------------------------------------------------------------------------

struct ValidatedHint {
  double period = 0.0;  ///< seconds, parabola-refined ACF lag / fs
  double height = 0.0;  ///< refined ACF value at the hill
};

std::vector<ValidatedHint> validate_spectrum_hints(
    std::span<const double> power, std::span<const double> acf, double fs,
    std::size_t min_cycles, const AutoperiodOptions& opts) {
  std::vector<ValidatedHint> validated;
  if (power.size() < 2 || acf.size() < 3 || fs <= 0.0) return validated;

  // Hints: Eq. (2) z-scores over the non-DC powers, thresholded.
  const std::vector<double> z = ftio::util::z_scores(power.subspan(1));
  struct Hint {
    std::size_t bin = 0;
    double power = 0.0;
  };
  std::vector<Hint> hints;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const std::size_t bin = i + 1;
    if (bin < std::max<std::size_t>(min_cycles, 2)) continue;
    if (z[i] >= opts.hint_zscore) hints.push_back({bin, power[bin]});
  }
  if (hints.empty()) return validated;
  // Adjacent-bin runs are one leakage-smeared peak: keep the strongest
  // bin of each run.
  std::vector<Hint> clustered;
  for (const Hint& h : hints) {
    if (!clustered.empty() && h.bin == clustered.back().bin + 1) {
      if (h.power > clustered.back().power) clustered.back() = h;
    } else {
      clustered.push_back(h);
    }
  }
  hints = std::move(clustered);
  std::stable_sort(hints.begin(), hints.end(),
                   [](const Hint& a, const Hint& b) {
                     return a.power > b.power;
                   });
  if (hints.size() > opts.max_hints) hints.resize(opts.max_hints);

  const double n = static_cast<double>(acf.size());
  for (const Hint& h : hints) {
    const auto k = static_cast<double>(h.bin);
    const double lo = n / (k + 1.0);
    const double hi = h.bin > 1 ? n / (k - 1.0) : n;
    auto lag_lo = static_cast<std::size_t>(lo) + 1;
    auto lag_hi = static_cast<std::size_t>(std::ceil(hi)) - 1;
    lag_lo = std::max<std::size_t>(lag_lo, 1);
    lag_hi = std::min(lag_hi, acf.size() - 2);
    if (lag_lo > lag_hi) continue;
    std::size_t best = lag_lo;
    for (std::size_t l = lag_lo + 1; l <= lag_hi; ++l) {
      if (acf[l] > acf[best]) best = l;
    }
    // Hill criterion: a strict local maximum. The argmax of a monotone
    // slope sits at a range edge and fails this, which is exactly the
    // leakage case autoperiod exists to reject.
    if (!(acf[best] > acf[best - 1] && acf[best] >= acf[best + 1])) continue;
    if (acf[best] < opts.min_acf_height) continue;
    // Quadratic peak interpolation, as the DFT stage does for bins.
    const double y0 = acf[best - 1];
    const double y1 = acf[best];
    const double y2 = acf[best + 1];
    const double denom = y0 - 2.0 * y1 + y2;
    double delta = 0.0;
    if (denom < 0.0) {
      delta = std::clamp(0.5 * (y0 - y2) / denom, -0.5, 0.5);
    }
    const double lag = static_cast<double>(best) + delta;
    const double height = y1 - 0.25 * (y0 - y2) * delta;
    validated.push_back({lag / fs, height});
  }
  return validated;
}

DetectorVerdict autoperiod_verdict(DetectorVerdict v,
                                   std::vector<ValidatedHint> hints) {
  if (hints.empty()) return v;
  std::size_t best = 0;
  for (std::size_t i = 1; i < hints.size(); ++i) {
    if (hints[i].height > hints[best].height) best = i;
  }
  set_period(v, hints[best].period);
  v.confidence = std::clamp(hints[best].height, 0.0, 1.0);
  v.candidate_periods.reserve(hints.size());
  for (const auto& h : hints) v.candidate_periods.push_back(h.period);
  return v;
}

class CfdAutoperiodDetector final : public PeriodDetector {
 public:
  std::string_view name() const override {
    return detector_names::kCfdAutoperiod;
  }
  unsigned capabilities() const override { return 0; }
  DetectorVerdict detect(const DetectorInput& input) const override {
    DetectorVerdict v = verdict_shell(*this);
    if (input.samples.size() < 3) return v;
    const std::vector<double> detrended = ftio::util::detrend(input.samples);
    const ftio::signal::Spectrum spectrum =
        ftio::signal::compute_spectrum(detrended, input.sampling_frequency);
    const std::vector<double> acf = ftio::signal::autocorrelation(detrended);
    return autoperiod_verdict(
        std::move(v),
        validate_spectrum_hints(spectrum.power, acf, input.sampling_frequency,
                                input.options->candidates.min_cycles,
                                input.options->detectors.autoperiod));
  }
};

}  // namespace

DetectorRegistry& DetectorRegistry::global() {
  static DetectorRegistry* registry = [] {
    auto* r = new DetectorRegistry();
    r->add(std::make_unique<DftDetector>());
    r->add(std::make_unique<AcfDetector>());
    r->add(std::make_unique<CfdAutoperiodDetector>());
    return r;
  }();
  return *registry;
}

void DetectorRegistry::add(std::unique_ptr<PeriodDetector> detector) {
  ftio::util::expect(detector != nullptr, "DetectorRegistry: null detector");
  const ftio::util::LockGuard lock(mutex_);
  for (auto& existing : detectors_) {
    if (existing->name() == detector->name()) {
      existing = std::move(detector);
      return;
    }
  }
  detectors_.push_back(std::move(detector));
}

const PeriodDetector* DetectorRegistry::find(std::string_view name) const {
  const ftio::util::LockGuard lock(mutex_);
  for (const auto& d : detectors_) {
    if (d->name() == name) return d.get();
  }
  return nullptr;
}

std::vector<std::string> DetectorRegistry::names() const {
  const ftio::util::LockGuard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(detectors_.size());
  for (const auto& d : detectors_) out.emplace_back(d->name());
  return out;
}

std::vector<DetectorSelection> resolve_detector_selections(
    const DetectorSetOptions& set, bool with_autocorrelation) {
  const std::span<const DetectorSelection> effective =
      effective_selections(set, with_autocorrelation);
  return {effective.begin(), effective.end()};
}

std::span<const DetectorSelection> effective_selections(
    const DetectorSetOptions& set, bool with_autocorrelation) {
  if (!set.detectors.empty()) return set.detectors;
  static const std::vector<DetectorSelection> kSeedDefault = {
      {std::string(detector_names::kDft), 1.0},
      {std::string(detector_names::kAcf), 1.0}};
  return with_autocorrelation
             ? std::span<const DetectorSelection>(kSeedDefault)
             : std::span<const DetectorSelection>(kSeedDefault.data(), 1);
}

bool selections_include(std::span<const DetectorSelection> selections,
                        std::string_view name) {
  for (const auto& s : selections) {
    if (s.name == name) return true;
  }
  return false;
}

double corroborated_confidence(std::span<const DetectorVerdict> verdicts) {
  if (verdicts.empty()) return 0.0;
  const DetectorVerdict& primary = verdicts.front();
  if (!primary.found) return primary.confidence;
  // Association order matters for the bit-identity promise: with the
  // default {dft, acf} at weight 1 the sums below evaluate as
  // ((c_d + c_a) + c_s) / 3 — the seed merged_confidence expression.
  double sum = primary.weight * primary.confidence;
  double denom = primary.weight;
  for (std::size_t i = 1; i < verdicts.size(); ++i) {
    const DetectorVerdict& v = verdicts[i];
    if (!v.found) continue;
    sum += v.weight * v.confidence;
    sum += v.weight * period_similarity(v.candidate_periods, primary.period);
    denom += 2.0 * v.weight;
  }
  return sum / denom;
}

FusedPrediction fuse_verdicts(std::span<const DetectorVerdict> verdicts,
                              const FusionOptions& options) {
  FusedPrediction out;
  double total_weight = 0.0;
  double found_weight = 0.0;
  for (const auto& v : verdicts) {
    total_weight += v.weight;
    if (v.found && v.period > 0.0) found_weight += v.weight;
  }
  const double log_tol = std::log1p(std::max(options.period_tolerance, 0.0));

  // Every voting verdict seeds a candidate cluster; the cluster with the
  // largest weight*confidence mass wins and its seed names the period.
  double best_mass = -1.0;
  double best_support = 0.0;
  std::size_t best_count = 0;
  const DetectorVerdict* best_seed = nullptr;
  for (const auto& seed : verdicts) {
    if (!seed.found || seed.period <= 0.0 || seed.weight <= 0.0) continue;
    if ((seed.capabilities & kCapCorroborateOnly) != 0) continue;
    double mass = 0.0;
    double support = 0.0;
    std::size_t count = 0;
    for (const auto& v : verdicts) {
      if (!v.found || v.period <= 0.0) continue;
      if (std::abs(std::log(v.period / seed.period)) > log_tol) continue;
      mass += v.weight * v.confidence;
      support += v.weight;
      ++count;
    }
    if (mass > best_mass) {
      best_mass = mass;
      best_support = support;
      best_count = count;
      best_seed = &seed;
    }
  }
  if (best_seed == nullptr) return out;
  out.frequency = best_seed->frequency > 0.0 ? best_seed->frequency
                                             : 1.0 / best_seed->period;
  out.period = best_seed->period;
  out.confidence =
      total_weight > 0.0 ? std::clamp(best_mass / total_weight, 0.0, 1.0)
                         : 0.0;
  out.agreement = found_weight > 0.0
                      ? std::clamp(best_support / found_weight, 0.0, 1.0)
                      : 0.0;
  out.supporting = best_count;
  // Fused-verdict invariants (the registry's contract with every
  // consumer): a found prediction names a positive period with a
  // consistent frequency, confidence and agreement are normalised
  // shares, and at least the seed verdict supports the winning cluster.
  FTIO_ASSERT(out.period > 0.0 && *out.frequency > 0.0);
  FTIO_ASSERT(out.confidence >= 0.0 && out.confidence <= 1.0);
  FTIO_ASSERT(out.agreement >= 0.0 && out.agreement <= 1.0);
  FTIO_ASSERT(out.supporting >= 1);
  return out;
}

}  // namespace ftio::core
