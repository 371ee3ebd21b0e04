#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/ftio.hpp"
#include "core/online.hpp"
#include "core/triage.hpp"
#include "trace/model.hpp"

namespace ftio::engine {

/// Bounds per-session memory to O(analysis window). After every predict()
/// the session computes the earliest window start its strategy could
/// select next (via core::peek_online_window) and evicts sweep
/// events and bandwidth-curve segments older than `lookback_slack` times
/// that look-back. Inside the retained span everything is bit-identical
/// to the uncompacted path.
/// Because the horizon is peeked from the exact strategy state the next
/// predict() will select with, retention always covers the next
/// reachable window; a window whose start nevertheless lands below the
/// retained edge is clamped there and counted in
/// CompactionStats::clamped_windows as a defensive diagnostic — it
/// stays 0 for the built-in strategies. A kGrowing strategy pins
/// the look-back to the whole stream and disables eviction — growing
/// sessions are O(requests) by definition.
struct CompactionOptions {
  bool enabled = false;
  /// Retained span = lookback_slack * (largest next-window look-back).
  /// Must be >= 1; the margin above 1 absorbs windows that regrow after
  /// eviction (an adaptive period increase re-reaches old data).
  double lookback_slack = 2.0;
  /// Never retain less than this many seconds of curve.
  double min_keep_seconds = 0.0;
  /// Keep at most this many predictions in history(); 0 keeps
  /// everything. merged_intervals() then works over the retained tail,
  /// with probabilities relative to it.
  std::size_t max_history = 0;
};

struct CompactionStats {
  std::size_t compactions = 0;       ///< compact() calls that evicted
  std::size_t evicted_events = 0;    ///< sweep events dropped
  std::size_t evicted_segments = 0;  ///< curve segments dropped
  /// Windows whose requested start lay below the retained edge and were
  /// clamped there (predictions then diverge from the uncompacted path).
  /// Defensive diagnostic: the peek-ahead horizon keeps this at 0 for
  /// the built-in strategies.
  std::size_t clamped_windows = 0;
  double retained_start = 0.0;       ///< current curve support start
};

/// The cheap online triage tier (Frequency-Cam-style): every ingest
/// feeds one aggregated observation into a core::TriageFilterBank, and
/// predict() skips the full spectral pipeline while the bank's
/// dominant-period estimate is stable — a skipped flush returns the last
/// full prediction re-stamped (Prediction::from_triage set) for O(bands)
/// arithmetic instead of a discretise + FFT + outlier sweep. The full
/// pipeline re-triggers on period drift, on a confidence drop, and on a
/// fixed cadence, so the estimate can never run away silently. Whenever
/// the full pipeline does run, its prediction is bit-identical to the
/// always-analyse path for the state-independent window strategies
/// (kGrowing, kFixedLength); kAdaptive carries the synthesized
/// predictions into its adaptation state, which matches exactly on
/// steady-period traces (the only traces the tier skips on).
struct TriageOptions {
  bool enabled = false;
  ftio::core::TriageBankOptions bank;
  /// Full analysis re-triggers when the bank estimate drifts more than
  /// this relative factor from its value at the last full analysis.
  double drift_tolerance = 0.25;
  /// Full analysis re-triggers when the bank's phase coherence drops
  /// below this (the pattern became ambiguous).
  double min_confidence = 0.6;
  /// Run this many full analyses before the first skip is allowed.
  std::size_t warmup_analyses = 3;
  /// Force a full analysis after this many consecutive skips.
  std::size_t max_skipped = 63;
};

struct TriageStats {
  std::size_t full_analyses = 0;
  std::size_t skipped = 0;
  std::size_t drift_retriggers = 0;       ///< full runs forced by drift
  std::size_t confidence_retriggers = 0;  ///< forced by low coherence
  std::size_t cadence_retriggers = 0;     ///< forced by max_skipped
};

/// Configuration of a StreamingSession.
struct StreamingOptions {
  /// The prediction loop (window strategy, adaptation knobs, base FTIO
  /// options; Sec. II-D).
  ftio::core::OnlineOptions online;
  /// O(window) state eviction (off by default: exact O(requests) mode).
  CompactionOptions compaction;
  /// Cheap skip-the-pipeline tier (off by default: always analyse).
  TriageOptions triage;
};

/// Streaming online predictor: the paper's online loop (Sec. II-D,
/// Fig. 5). A session runs exactly one window strategy and keeps one
/// window, one history and one verdict; each full analysis is one
/// core::analyze_samples call. Every Prediction is bit-identical to
/// core::detect over all
/// requests ingested so far, windowed by core::select_online_window —
/// enforced by sharing the window-selection, discretisation, and merge
/// code with core — but the session keeps incremental state across
/// flushes instead of re-running detect() on the whole trace:
///
///  - the bandwidth step-function is extended per ingest through
///    trace::IncrementalBandwidth (only the curve suffix after the
///    earliest new event is re-swept),
///  - each full analysis discretises its window cold, in one forward
///    pass over the curve (core::discretize_window); no sample state
///    survives between flushes,
///  - trace aggregates (begin/end time, minimum request duration for the
///    automatic fs) are running values instead of per-flush scans,
///  - merged_intervals() recomputes the DBSCAN merge only when new
///    predictions arrived since the last call.
///
/// The ingested requests are folded into the sweep's event log (two
/// endpoints per selected request) instead of being retained as a Trace,
/// so per-flush cost is ~O(chunk + analysis window) instead of O(total
/// trace). With CompactionOptions::enabled the event log and curve are
/// additionally evicted behind the largest reachable look-back window,
/// bounding per-session memory to O(window) instead of O(requests); with
/// TriageOptions::enabled most flushes on a steady-period trace skip the
/// full pipeline entirely. See bench/micro_streaming.cpp for the
/// trajectory of all three tiers.
///
/// Single-owner contract: one thread at a time calls into a session, for
/// every entry point and accessor alike; the session holds no lock.
/// Handing a session to another thread needs a happens-before edge
/// between the old owner's last call and the new owner's first, such as
/// the worker join in service::Shard::stop before the final checkpoint,
/// or a restart that builds the session anew from a checkpoint.
/// Independent sessions may run on different threads at once: what they
/// share (the FFT plan cache, per-thread scratch) is thread-safe.
class StreamingSession {
 public:
  explicit StreamingSession(StreamingOptions options);

  /// Appends freshly flushed requests, extending the incremental curve
  /// (and, when triage is enabled, the dominant-period filter bank).
  void ingest(std::span<const ftio::trace::IoRequest> requests);
  void ingest(const ftio::trace::Trace& chunk);

  /// Runs one evaluation of the window strategy over the current window
  /// and records it. Returns the Prediction — bit-identical to
  /// core::detect over the accumulated
  /// requests, windowed by core::select_online_window (see TriageOptions
  /// / CompactionOptions for the scope of that promise when the cheap
  /// tiers are enabled). Throws InvalidArgument when no data was
  /// ingested yet.
  ftio::core::Prediction predict();

  /// Predictions made so far, in order (the retained tail when
  /// CompactionOptions::max_history is set).
  const std::vector<ftio::core::Prediction>& history() const {
    return history_;
  }

  /// Full result of the latest evaluation. Like the offline detect(),
  /// it carries the abstraction error and metrics only when
  /// options.online.base.with_metrics asks for them (the daemon's
  /// template does not). Unchanged by skipped flushes: always the latest
  /// *full* analysis.
  const ftio::core::FtioResult& last_result() const { return last_result_; }

  /// Merged frequency intervals of the history (Sec. II-D);
  /// cached between predictions.
  const std::vector<ftio::core::FrequencyInterval>& merged_intervals() const;

  /// The incrementally maintained application-level bandwidth curve —
  /// bit-identical to trace::bandwidth_signal over all ingested requests
  /// (over the retained suffix once compaction evicted).
  const ftio::signal::StepFunction& bandwidth() const {
    return bandwidth_.curve();
  }

  /// The data window the *next* evaluation would use.
  double current_window_start() const { return state_.window_start; }

  // Running trace aggregates (the requests themselves are not stored).
  std::size_t request_count() const { return request_count_; }
  double begin_time() const { return begin_time_; }
  double end_time() const { return end_time_; }
  const std::string& app() const { return app_; }
  int rank_count() const { return rank_count_; }

  // O(window) / triage observability.
  CompactionStats compaction_stats() const { return compaction_stats_; }
  TriageStats triage_stats() const { return triage_stats_; }
  /// Current filter-bank estimate (invalid when triage is disabled or
  /// the bank has not warmed up yet).
  ftio::core::TriageEstimate triage_estimate() const {
    return triage_bank_.estimate();
  }
  /// Serializes what a later restore needs to continue the stream
  /// bit-identically and cannot re-derive: the retained sweep events,
  /// window-selection state, prediction history, triage filter-bank
  /// accumulators, and the running aggregates. The payload is a
  /// versioned raw byte stream (doubles as IEEE bit patterns); framing
  /// (magic, CRC) is the durability layer's job. Not serialized, because
  /// a restore re-derives it: the curve and its sweep levels (re-swept
  /// from the events), merged_intervals() (a pure function of history,
  /// recomputed lazily), and last_result() (diagnostic only — empty
  /// after restore until the next full analysis). No sample state exists
  /// to save: every analysis discretises its window cold.
  std::vector<std::uint8_t> serialize_state() const;

  /// Restores state written by serialize_state into a session constructed
  /// with the *same* StreamingOptions: subsequent ingest()/predict()
  /// calls then produce byte-identical predictions, CompactionStats, and
  /// TriageStats to the uninterrupted original. Throws util::ParseError
  /// on truncated or corrupt payloads, on a payload of another version
  /// (older payloads are rejected, not migrated), and when the payload's
  /// shape does not match this session's options (triage grid); the
  /// session is unchanged on throw — recover-or-reject, never a
  /// half-restored hybrid.
  void restore_state(std::span<const std::uint8_t> payload);

  /// Approximate resident bytes of all per-session state: sweep events,
  /// level cache, curve, histories, intervals, and the filter bank. The
  /// per-thread discretisation scratch belongs to no session and is not
  /// counted. Capacity-based, so eviction without shrink-to-fit would
  /// not show up as savings.
  std::size_t memory_bytes() const;

 private:
  double derived_sampling_frequency() const;
  /// Counts a window whose requested start fell below the compaction
  /// floor (defensive diagnostic — stays 0 for built-in strategies).
  void note_clamped(double requested);
  /// True when the triage tier may satisfy this flush without the full
  /// pipeline (stable estimate, warmed up, within the skip cadence).
  bool should_skip_analysis();
  /// The skipped-flush path: re-stamps the last full prediction.
  ftio::core::Prediction skipped_prediction(double now);
  /// Evicts state behind the reachable look-back window.
  void maybe_compact(double now);
  /// Records a prediction in the history and the window-adaptation state.
  void record(const ftio::core::Prediction& p);

  StreamingOptions options_;
  trace::IncrementalBandwidth bandwidth_;
  ftio::core::OnlineWindowState state_;
  std::vector<ftio::core::Prediction> history_;
  ftio::core::FtioResult last_result_;

  // Running aggregates over every ingested request (pre-filter, matching
  // Trace::begin_time / end_time / suggest_sampling_frequency).
  std::size_t request_count_ = 0;
  double begin_time_ = 0.0;
  double end_time_ = 0.0;
  double min_request_duration_ = 0.0;
  std::string app_;
  int rank_count_ = 0;

  // Cached DBSCAN merge of the history.
  mutable std::vector<ftio::core::FrequencyInterval> intervals_;
  mutable bool intervals_stale_ = false;

  // Triage tier state.
  ftio::core::TriageFilterBank triage_bank_;
  /// Bank estimate @ last full run.
  ftio::core::TriageEstimate triage_reference_;
  /// Latest full-analysis prediction (the triage skip template).
  ftio::core::Prediction last_full_;
  std::size_t skipped_since_full_ = 0;
  TriageStats triage_stats_;

  CompactionStats compaction_stats_;
};

}  // namespace ftio::engine
