#include "engine/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ftio::engine {

StreamingSession::StreamingSession(StreamingOptions options)
    : options_(std::move(options)), bandwidth_([this] {
        ftio::trace::BandwidthOptions bw;
        bw.kind = options_.online.base.kind;
        return bw;
      }()),
      triage_bank_(options_.triage.bank) {
  ftio::util::expect(options_.online.adaptive_hits >= 1,
                     "StreamingSession: adaptive_hits must be >= 1");
  ftio::util::expect(
      options_.online.strategy != ftio::core::WindowStrategy::kFixedLength ||
          options_.online.fixed_window > 0.0,
      "StreamingSession: fixed_window must be positive");
  ftio::util::expect(!options_.online.auto_sampling_frequency ||
                         (options_.online.min_auto_fs > 0.0 &&
                          options_.online.max_auto_fs >=
                              options_.online.min_auto_fs),
                     "StreamingSession: bad auto-fs clamp range");
  ftio::util::expect(!options_.compaction.enabled ||
                         options_.compaction.lookback_slack >= 1.0,
                     "StreamingSession: lookback_slack must be >= 1");
  // first_phase_end scans the curve from its support start; evicting the
  // head would silently move the detected phase boundary.
  ftio::util::expect(!(options_.compaction.enabled &&
                       options_.online.base.skip_first_phase),
                     "StreamingSession: compaction is incompatible with "
                     "skip_first_phase");
  ftio::util::expect(!options_.triage.enabled ||
                         options_.triage.warmup_analyses >= 1,
                     "StreamingSession: warmup_analyses must be >= 1");
}

void StreamingSession::ingest(const ftio::trace::Trace& chunk) {
  if (app_.empty()) app_ = chunk.app;
  rank_count_ = std::max(rank_count_, chunk.rank_count);
  ingest(std::span<const ftio::trace::IoRequest>(chunk.requests));
}

void StreamingSession::ingest(
    std::span<const ftio::trace::IoRequest> requests) {
  double chunk_bytes = 0.0;
  double chunk_byte_time = 0.0;
  for (const auto& r : requests) {
    if (request_count_ == 0) {
      begin_time_ = r.start;
      end_time_ = r.end;
    } else {
      begin_time_ = std::min(begin_time_, r.start);
      end_time_ = std::max(end_time_, r.end);
    }
    ++request_count_;
    rank_count_ =
        std::max(rank_count_, ftio::trace::rank_count_through(r.rank));
    const double d = r.duration();
    if (d > 0.0 && (min_request_duration_ == 0.0 ||
                    d < min_request_duration_)) {
      min_request_duration_ = d;
    }
    if (options_.triage.enabled) {
      const auto bytes = static_cast<double>(r.bytes);
      chunk_bytes += bytes;
      chunk_byte_time += bytes * r.start;
    }
  }
  // One aggregated observation per flush keeps the triage tier O(bands)
  // per ingest: the byte-weighted mean start time is the chunk's burst
  // position, the byte total its weight.
  if (options_.triage.enabled && chunk_bytes > 0.0) {
    triage_bank_.observe(chunk_byte_time / chunk_bytes, chunk_bytes);
  }
  bandwidth_.extend(requests);
}

double StreamingSession::derived_sampling_frequency() const {
  if (!options_.online.auto_sampling_frequency) {
    return options_.online.base.sampling_frequency;
  }
  return ftio::core::suggest_sampling_frequency(min_request_duration_,
                                                options_.online.min_auto_fs,
                                                options_.online.max_auto_fs);
}

bool StreamingSession::should_skip_analysis() {
  const TriageOptions& triage = options_.triage;
  if (!triage.enabled) return false;
  if (triage_stats_.full_analyses < triage.warmup_analyses) return false;
  if (!last_full_.found()) return false;
  if (!triage_reference_.valid()) return false;
  if (skipped_since_full_ >= triage.max_skipped) {
    ++triage_stats_.cadence_retriggers;
    return false;
  }
  const ftio::core::TriageEstimate estimate = triage_bank_.estimate();
  if (!estimate.valid() || estimate.confidence < triage.min_confidence) {
    ++triage_stats_.confidence_retriggers;
    return false;
  }
  // Drift is measured bank-vs-bank (estimate now against the estimate at
  // the last full analysis), so the band-grid quantisation cancels.
  const double drift =
      std::abs(std::log(estimate.period / triage_reference_.period));
  if (drift > std::log1p(triage.drift_tolerance)) {
    ++triage_stats_.drift_retriggers;
    return false;
  }
  return true;
}

ftio::core::Prediction StreamingSession::skipped_prediction(double now) {
  // The estimate is stable, so the last full analysis still answers: re-
  // stamp it instead of re-running discretisation + spectra + outliers.
  // The synthesized prediction feeds the window-adaptation state exactly
  // like a real one, so a steady-period adaptive session evolves as if
  // every flush had been analysed.
  ftio::core::Prediction p = last_full_;
  p.at_time = now;
  p.from_triage = true;
  record(p);
  ++triage_stats_.skipped;
  ++skipped_since_full_;
  return p;
}

void StreamingSession::note_clamped(double requested) {
  if (bandwidth_.floor_time() && requested < *bandwidth_.floor_time()) {
    ++compaction_stats_.clamped_windows;
  }
}

ftio::core::Prediction StreamingSession::predict() {
  ftio::util::expect(request_count_ > 0,
                     "StreamingSession: no data ingested");
  ftio::util::expect(!bandwidth_.curve().empty(),
                     "StreamingSession: trace has no I/O requests");
  const auto& curve = bandwidth_.curve();
  const double now = end_time_;
  const double begin = begin_time_;

  if (should_skip_analysis()) {
    const ftio::core::Prediction p = skipped_prediction(now);
    maybe_compact(now);
    return p;
  }

  ftio::core::FtioOptions base = options_.online.base;
  base.window_end = now;
  base.sampling_frequency = derived_sampling_frequency();

  // Shared window selection, then a cold discretisation into per-thread
  // scratch: one forward pass over the curve, nothing kept between
  // flushes.
  const double start =
      select_online_window(options_.online, state_, begin, now);
  note_clamped(start);
  ftio::core::FtioOptions window_opts = base;
  window_opts.window_start = start;
  const ftio::core::AnalysisWindow window =
      ftio::core::select_analysis_window(curve, window_opts);
  thread_local std::vector<double> samples;
  ftio::core::discretize_window(curve, window, base, 0, samples);

  ftio::core::FtioResult result =
      ftio::core::analyze_samples(samples, base, window.start);
  ftio::core::finish_bandwidth_result(curve, window, samples, base, result);
  const ftio::core::Prediction p =
      ftio::core::prediction_from_result(result, now);
  record(p);
  last_full_ = p;
  last_result_ = std::move(result);
  if (options_.triage.enabled) {
    triage_reference_ = triage_bank_.estimate();
  }
  ++triage_stats_.full_analyses;
  skipped_since_full_ = 0;
  maybe_compact(now);
  return p;
}

void StreamingSession::maybe_compact(double now) {
  if (!options_.compaction.enabled) return;
  // The earliest window start the strategy could select for its next
  // evaluation. A kGrowing strategy (or an adaptive one that has not
  // shrunk yet) pins this to the trace begin, which disables eviction —
  // its look-back genuinely spans the stream.
  const double reach = ftio::core::peek_online_window(
      options_.online, state_, begin_time_, now);
  const double lookback = now - reach;
  const double keep =
      std::max(lookback * options_.compaction.lookback_slack,
               options_.compaction.min_keep_seconds);
  const double horizon = now - keep;
  // The retained-span guarantee the whole O(window) tier rests on:
  // eviction never reaches past the earliest window the strategy could
  // select next (keep >= lookback because lookback_slack >= 1), so the
  // next predict() always finds its data intact.
  FTIO_ASSERT(horizon <= reach);

  const double start_before = bandwidth_.curve().start_time();
  const std::size_t segments_before = bandwidth_.curve().segment_count();
  const std::size_t evicted = bandwidth_.compact(horizon);
  if (evicted > 0) {
    // compact() cuts at the last boundary at or before the horizon, so
    // an evicting pass leaves the support covering [horizon, now] ...
    FTIO_ASSERT(bandwidth_.curve().start_time() <= horizon);
    ++compaction_stats_.compactions;
    compaction_stats_.evicted_events += evicted;
    compaction_stats_.evicted_segments +=
        segments_before - bandwidth_.curve().segment_count();
  }
  // ... and the retained edge only ever advances.
  FTIO_ASSERT(bandwidth_.curve().start_time() >= start_before);
  compaction_stats_.retained_start = bandwidth_.curve().start_time();
}

void StreamingSession::record(const ftio::core::Prediction& p) {
  history_.push_back(p);
  const std::size_t cap = options_.compaction.max_history;
  if (cap != 0 && history_.size() > cap) {
    history_.erase(history_.begin(),
                   history_.end() - static_cast<std::ptrdiff_t>(cap));
  }
  ftio::core::record_online_result(state_, p);
  intervals_stale_ = true;
}

std::size_t StreamingSession::memory_bytes() const {
  std::size_t total = sizeof(*this);
  total += bandwidth_.memory_bytes();
  total += history_.capacity() * sizeof(ftio::core::Prediction);
  total += intervals_.capacity() * sizeof(ftio::core::FrequencyInterval);
  total += triage_bank_.memory_bytes();
  total += app_.capacity();
  return total;
}

const std::vector<ftio::core::FrequencyInterval>&
StreamingSession::merged_intervals() const {
  if (intervals_stale_) {
    intervals_ = ftio::core::merge_predictions(history_);
    intervals_stale_ = false;
  }
  return intervals_;
}

}  // namespace ftio::engine
