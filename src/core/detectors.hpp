#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/acf_analysis.hpp"
#include "core/candidates.hpp"
#include "signal/spectrum.hpp"
#include "signal/step_function.hpp"
#include "util/annotated.hpp"

namespace ftio::core {

struct FtioOptions;

// ---------------------------------------------------------------------------
// Detector registry: the paper's DFT-outlier + ACF pipeline generalised to
// a pluggable set of period-detection methods. Every analysis resolves an
// ordered detector selection (the first entry is the fusion primary), runs
// each detector over shared artefacts (spectrum, ACF), and fuses the
// per-method verdicts into the refined confidence and a weighted-vote
// prediction. Three methods are built in: dft, acf and cfd-autoperiod.
// The default selection — {dft, acf} — reproduces the seed pipeline bit
// for bit.
// ---------------------------------------------------------------------------

/// Capability flags a detector declares (bitmask). The one flag: the
/// detector refines/validates another method's period but cannot claim
/// periodicity on its own — its verdict joins the confidence merge and
/// supports fusion clusters, yet never seeds the fused prediction (the
/// ACF pass — a refinement in the paper — and the triage filter bank
/// carry this flag).
inline constexpr unsigned kCapCorroborateOnly = 1u << 0;

/// Canonical names of the built-in detectors.
namespace detector_names {
inline constexpr std::string_view kDft = "dft";
inline constexpr std::string_view kAcf = "acf";
inline constexpr std::string_view kCfdAutoperiod = "cfd-autoperiod";
}  // namespace detector_names

/// Everything a detector may consume for one analysis. Only `samples`,
/// `sampling_frequency`, and `options` are always present; the artefact
/// pointers are set when a caller (the batched engine) precomputed them,
/// and detectors fall back to computing what they need from `samples`.
/// Pointed-to objects outlive the detect() call.
struct DetectorInput {
  std::span<const double> samples;
  double sampling_frequency = 0.0;
  /// Absolute time of samples[0].
  double origin = 0.0;
  /// Spectrum of `samples` (always set by the pipeline — the DFT stage
  /// needs it unconditionally).
  const ftio::signal::Spectrum* spectrum = nullptr;
  /// Lag-0-normalised ACF of `samples`.
  const std::vector<double>* acf = nullptr;
  /// The continuous bandwidth curve the samples were discretised from,
  /// when the analysis came from a curve or trace. No built-in reads it;
  /// plug-ins registered through DetectorRegistry::add may.
  const ftio::signal::StepFunction* source_curve = nullptr;
  /// The analysis options (candidate rule, ACF knobs, detector set).
  const FtioOptions* options = nullptr;
};

/// One detector's verdict on one analysis window.
struct DetectorVerdict {
  std::string name;           ///< detector that produced it
  unsigned capabilities = 0;  ///< the detector's capability flags
  double weight = 1.0;        ///< selection weight (fusion vote strength)
  bool found = false;
  double period = 0.0;     ///< seconds, 0 when not found
  double frequency = 0.0;  ///< Hz, 0 when not found
  /// Method confidence in [0, 1] (c_d for the DFT stage, c_a for the
  /// ACF, the validated-peak height for cfd-autoperiod).
  double confidence = 0.0;
  /// Supporting period estimates (the similarity evidence the fusion
  /// scores against the primary period).
  std::vector<double> candidate_periods;
  /// Full stage payloads, set by the dft/acf detectors so the pipeline
  /// can populate FtioResult::dft / FtioResult::acf; moved out (and
  /// reset) before the verdict is stored on the result.
  std::optional<DftAnalysis> dft;
  std::optional<AcfAnalysis> acf;
};

/// Result of the weighted vote over all verdicts.
struct FusedPrediction {
  /// Period/frequency of the winning cluster's seed verdict. Unset when
  /// no voting (non-corroborate-only) detector found a period.
  std::optional<double> frequency;
  double period = 0.0;
  /// Winning cluster's weight*confidence mass over the total selected
  /// weight — unanimous confident detectors score high, dissent and
  /// detectors that found nothing dilute.
  double confidence = 0.0;
  /// Share of the *found* verdicts' weight that voted with the winner.
  double agreement = 0.0;
  /// Verdicts inside the winning cluster (seed included).
  std::size_t supporting = 0;

  bool found() const { return frequency.has_value(); }
};

/// One entry of a detector selection: which detector, and how strongly
/// its verdict counts in the confidence merge and the fused vote.
struct DetectorSelection {
  std::string name;
  double weight = 1.0;
};

/// Knobs of the cfd-autoperiod detector (Vlachos et al.: periodogram
/// hints validated on the ACF, here of the detrended signal).
struct AutoperiodOptions {
  /// Z-score a spectral bin must reach to become a hint.
  double hint_zscore = 3.0;
  /// At most this many strongest hints are validated.
  std::size_t max_hints = 8;
  /// An ACF hill must reach this height for the hint to validate.
  double min_acf_height = 0.1;
};

/// Fusion knobs.
struct FusionOptions {
  /// Verdicts whose periods differ by less than this relative factor
  /// (log-scale) vote together.
  double period_tolerance = 0.15;
};

/// The detector-set surface of FtioOptions. An empty `detectors` list
/// resolves to the paper pipeline — {dft} plus {acf} when
/// with_autocorrelation is set — which is bit-identical to the seed
/// analyze_samples. An explicit list overrides that default (including
/// with_autocorrelation: list "acf" to run it); the first entry is the
/// fusion primary and should normally stay "dft".
struct DetectorSetOptions {
  std::vector<DetectorSelection> detectors;
  AutoperiodOptions autoperiod;
  FusionOptions fusion;
};

/// A registered period-detection method.
class PeriodDetector {
 public:
  virtual ~PeriodDetector() = default;
  /// Stable registry key (see detector_names).
  virtual std::string_view name() const = 0;
  /// Capability bitmask (kCap*).
  virtual unsigned capabilities() const = 0;
  /// Analyses one window. Must be safe to call concurrently.
  virtual DetectorVerdict detect(const DetectorInput& input) const = 0;
};

/// Process-wide detector registry. The three built-ins are registered on
/// first access; add() lets applications plug their own methods (same
/// name replaces). Lookup is thread-safe — engine workers resolve
/// detectors concurrently.
class DetectorRegistry {
 public:
  /// The global instance, built-ins included.
  static DetectorRegistry& global();

  /// Registers `detector` under detector->name(), replacing any existing
  /// entry with that name.
  void add(std::unique_ptr<PeriodDetector> detector);
  /// Looks up a detector by name; nullptr when unknown. The pointer
  /// stays valid until a replacing add() — keep registration out of
  /// concurrent analysis.
  const PeriodDetector* find(std::string_view name) const;
  /// Registered names in registration order.
  std::vector<std::string> names() const;

 private:
  mutable ftio::util::Mutex mutex_;
  std::vector<std::unique_ptr<PeriodDetector>> detectors_
      FTIO_GUARDED_BY(mutex_);
};

/// Resolves the effective detector selection: `set.detectors` verbatim
/// when non-empty, else the seed default {dft} (+ {acf} when
/// with_autocorrelation).
std::vector<DetectorSelection> resolve_detector_selections(
    const DetectorSetOptions& set, bool with_autocorrelation);

/// Allocation-free view of the same resolution — the span aliases either
/// `set.detectors` or a process-static default list, so it stays valid
/// while `set` does. The per-flush hot paths (analyze_samples_prepared,
/// the batch engine) read this instead of copying a vector.
std::span<const DetectorSelection> effective_selections(
    const DetectorSetOptions& set, bool with_autocorrelation);

/// True when `selections` contains detector `name`.
bool selections_include(std::span<const DetectorSelection> selections,
                        std::string_view name);

/// Primary-anchored confidence merge over ordered verdicts: when the
/// primary (first) verdict found a period, every other found verdict
/// contributes weight * (its confidence + its candidates' similarity to
/// the primary period), normalised by the total contributing weight;
/// when it did not, the primary confidence passes through. With the
/// default {dft, acf} selection at weight 1 this is exactly the paper's
/// (c_d + c_a + c_s) / 3 — bit-identical to the seed merged_confidence.
double corroborated_confidence(std::span<const DetectorVerdict> verdicts);

/// Weighted vote over the verdicts: found verdicts cluster by period
/// (log-scale tolerance), the cluster with the largest weight*confidence
/// mass wins, and its seed verdict provides the fused period. Only
/// non-corroborate-only verdicts may seed a cluster, so e.g. the ACF
/// refinement alone can never flip an aperiodic default verdict to
/// periodic; corroborate-only verdicts still join clusters and add
/// mass. Streaming re-fuses after appending the triage-bank vote.
FusedPrediction fuse_verdicts(std::span<const DetectorVerdict> verdicts,
                              const FusionOptions& options);

}  // namespace ftio::core
