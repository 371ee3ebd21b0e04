#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/ftio.hpp"

namespace ftio::core {

/// Window-selection strategies for online prediction (Sec. II-D: "Different
/// strategies can be used here").
enum class WindowStrategy {
  /// Use all data collected so far.
  kGrowing,
  /// "After finding k times a dominant frequency, the time window for
  /// evaluation is reduced to k times the last found period."
  kAdaptive,
  /// Fixed-length look-back window.
  kFixedLength,
};

struct OnlineOptions {
  FtioOptions base;                 ///< per-evaluation FTIO options
  WindowStrategy strategy = WindowStrategy::kAdaptive;
  std::size_t adaptive_hits = 3;    ///< k: detections before the window shrinks
  /// Extra periods kept beyond k when the adaptive window shrinks. The
  /// paper's rule is exactly k periods (margin 0); one extra period lets
  /// the DFT still resolve a period that suddenly grows (e.g. doubles),
  /// where a k-period window would lock onto a harmonic.
  std::size_t adaptive_margin = 1;
  /// The adaptive window never shrinks below this many samples: Z-score
  /// statistics over a few dozen spectral bins are fragile and invite
  /// harmonic slips. Set to 0 to reproduce the paper's bare k x period
  /// rule.
  std::size_t min_window_samples = 64;
  double fixed_window = 60.0;       ///< seconds, for kFixedLength
  /// Online fs adaptation (Sec. VI names this as future work): derive the
  /// sampling frequency from the collected requests before every
  /// evaluation, clamped to [min_auto_fs, max_auto_fs]. The upper clamp
  /// doubles as the low-pass filter the paper describes ("we may not be
  /// interested in high frequencies because we cannot respond fast
  /// enough, so fs could act as a filter").
  bool auto_sampling_frequency = false;
  double min_auto_fs = 0.1;
  double max_auto_fs = 100.0;
};

/// One online prediction, made whenever freshly flushed data arrives.
struct Prediction {
  double at_time = 0.0;             ///< trace end when the prediction ran
  std::optional<double> frequency;  ///< dominant frequency, if any
  double confidence = 0.0;          ///< c_d
  double refined_confidence = 0.0;  ///< merged with ACF when enabled
  /// Data window the evaluation used. A from_triage prediction carries
  /// the window of the last full analysis, whose data compaction may
  /// already have evicted; merge_predictions reads these bounds, so
  /// they stay those of the analysis that produced the period.
  double window_start = 0.0;
  double window_end = 0.0;
  std::size_t sample_count = 0;
  /// True when the streaming triage tier synthesized this prediction from
  /// the last full analysis instead of running the spectral pipeline
  /// (the filter-bank estimate was stable, see engine::TriageOptions).
  bool from_triage = false;

  bool found() const { return frequency.has_value(); }
  double period() const {
    return frequency && *frequency > 0.0 ? 1.0 / *frequency : 0.0;
  }
};

// ---------------------------------------------------------------------------
// The Sec. II-D online loop's steps, composed by engine::StreamingSession.
// ---------------------------------------------------------------------------

/// Mutable state of the Sec. II-D window-selection rule.
struct OnlineWindowState {
  double window_start = 0.0;       ///< adaptive look-back anchor
  std::size_t consecutive_hits = 0;
  double last_period = 0.0;        ///< period of the latest detection
};

/// Selects the evaluation window [returned start, now] for the next
/// prediction. Adaptation uses the *previous* period: the paper notes the
/// k-th detection's result only becomes available to the following
/// prediction (Fig. 15a discussion). Mutates state.window_start for the
/// adaptive strategy.
double select_online_window(const OnlineOptions& options,
                            OnlineWindowState& state, double begin,
                            double now);

/// The window start select_online_window would return for the next
/// evaluation, without committing the adaptive state mutation. The
/// streaming engine derives its compaction horizon from the earliest
/// reachable window start across every strategy it runs.
double peek_online_window(const OnlineOptions& options,
                          const OnlineWindowState& state, double begin,
                          double now);

/// Records a finished evaluation: advances the hit streak and remembers
/// the detected period for the next adaptive shrink.
void record_online_result(OnlineWindowState& state, const Prediction& p);

/// Builds the Prediction record of one FTIO evaluation made at `now`.
Prediction prediction_from_result(const FtioResult& result, double now);

/// A merged frequency interval with its occurrence probability
/// (Sec. II-D: DBSCAN over stored predictions; "the number of predictions
/// inside a cluster divided by the total number of predictions represents
/// the probability of the interval").
struct FrequencyInterval {
  double low = 0.0;
  double high = 0.0;
  double center = 0.0;       ///< mean of the clustered frequencies
  double probability = 0.0;  ///< cluster size / total predictions
  std::size_t count = 0;     ///< predictions in the cluster
};

/// Merges the dominant frequencies recorded in `history` into intervals
/// with probabilities, using 1-D DBSCAN with eps = the coarsest frequency
/// resolution among the evaluations (window-length differences change the
/// bin spacing; Sec. II-D). Sorted by descending probability.
std::vector<FrequencyInterval> merge_predictions(
    std::span<const Prediction> history);

}  // namespace ftio::core
