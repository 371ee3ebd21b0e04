#include "engine/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/annotated.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ftio::engine {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

void validate_strategy(const ftio::core::OnlineOptions& options,
                       ftio::core::WindowStrategy strategy) {
  ftio::util::expect(strategy != ftio::core::WindowStrategy::kFixedLength ||
                         options.fixed_window > 0.0,
                     "StreamingSession: fixed_window must be positive");
}

std::size_t cache_bytes(const std::vector<double>& samples) {
  return samples.capacity() * sizeof(double);
}

}  // namespace

StreamingSession::StreamingSession(StreamingOptions options)
    : options_(std::move(options)), bandwidth_([this] {
        ftio::trace::BandwidthOptions bw;
        bw.kind = options_.online.base.kind;
        return bw;
      }()),
      triage_bank_(options_.triage.bank) {
  ftio::util::expect(options_.online.adaptive_hits >= 1,
                     "StreamingSession: adaptive_hits must be >= 1");
  validate_strategy(options_.online, options_.online.strategy);
  ftio::util::expect(!options_.online.auto_sampling_frequency ||
                         (options_.online.min_auto_fs > 0.0 &&
                          options_.online.max_auto_fs >=
                              options_.online.min_auto_fs),
                     "StreamingSession: bad auto-fs clamp range");
  members_.reserve(options_.ensemble.size());
  for (const auto strategy : options_.ensemble) {
    validate_strategy(options_.online, strategy);
    members_.push_back(Member{strategy, {}, {}, {}});
  }
  member_caches_.resize(members_.size());
  dirty_since_ = kInfinity;
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
  for (const auto& selection : options_.online.base.detectors.detectors) {
    ftio::util::expect(std::isfinite(selection.weight) &&
                           selection.weight >= 0.0,
                       "StreamingSession: detector weight must be finite "
                       "and >= 0");
  }
}

void StreamingSession::ingest(
    std::span<const ftio::trace::IoRequest> requests) {
  const ftio::util::LockGuard lock(mutex_);
  ingest_locked(requests);
}

void StreamingSession::ingest(const ftio::trace::Trace& chunk) {
  const ftio::util::LockGuard lock(mutex_);
  if (app_.empty()) app_ = chunk.app;
  rank_count_ = std::max(rank_count_, chunk.rank_count);
  ingest_locked(std::span<const ftio::trace::IoRequest>(chunk.requests));
}

void StreamingSession::ingest_locked(
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
    rank_count_ = std::max(rank_count_, r.rank + 1);
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
  dirty_since_ = std::min(dirty_since_, bandwidth_.extend(requests));
}

double StreamingSession::derived_sampling_frequency() const {
  if (!options_.online.auto_sampling_frequency) {
    return options_.online.base.sampling_frequency;
  }
  return ftio::core::suggest_sampling_frequency(min_request_duration_,
                                                options_.online.min_auto_fs,
                                                options_.online.max_auto_fs);
}

std::size_t StreamingSession::clean_sample_prefix(
    const SampleCache& cache, const ftio::core::AnalysisWindow& window) const {
  // A cached sample is still valid when nothing it reads from the curve
  // changed: point samples read value_at(t_i), bin averages additionally
  // read one step ahead and clip the trailing bin at the previous window
  // end. Everything strictly before that horizon is clean; one extra
  // sample of slack absorbs the index arithmetic rounding.
  double horizon = dirty_since_;
  if (cache.mode == ftio::signal::SamplingMode::kBinAverage) {
    horizon = std::min(horizon, cache.end);
  }
  if (horizon == kInfinity) return cache.count;
  const double steps =
      (horizon - window.start) * cache.fs -
      (cache.mode == ftio::signal::SamplingMode::kBinAverage ? 2.0 : 1.0);
  if (steps <= 0.0) return 0;
  const auto clean = static_cast<std::size_t>(steps);
  return std::min(clean, cache.count);
}

void StreamingSession::discretize_into_cache(
    SampleCache& cache, const ftio::core::AnalysisWindow& window,
    const ftio::core::FtioOptions& base) {
  const double fs = base.sampling_frequency;
  const auto mode = base.sampling_mode;
  std::size_t first = 0;
  if (cache.valid && cache.start == window.start && cache.fs == fs &&
      cache.mode == mode && window.samples >= cache.count) {
    first = clean_sample_prefix(cache, window);
  }
  ftio::core::discretize_window(bandwidth_.curve(), window, base, first,
                                cache.samples);
  cache.start = window.start;
  cache.fs = fs;
  cache.mode = mode;
  cache.end = window.end;
  cache.count = window.samples;
  cache.valid = true;
}

bool StreamingSession::should_skip_analysis() {
  const TriageOptions& triage = options_.triage;
  if (!triage.enabled) return false;
  if (triage_stats_.full_analyses < triage.warmup_analyses) return false;
  if (!last_full_primary_.found()) return false;
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
  ftio::core::Prediction p = last_full_primary_;
  p.at_time = now;
  p.from_triage = true;
  history_.push_back(p);
  trim_history(history_);
  ftio::core::record_online_result(state_, p);
  for (auto& member : members_) {
    ftio::core::Prediction mp = member.last_full;
    mp.at_time = now;
    mp.from_triage = true;
    member.history.push_back(mp);
    trim_history(member.history);
    ftio::core::record_online_result(member.state, mp);
  }
  intervals_stale_ = true;
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
  const ftio::util::LockGuard lock(mutex_);
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

  // Primary window: shared selection logic, then extend the cached sample
  // vector — a full re-read of the window only happens when the grid
  // moved (adaptive/fixed look-back) or the sampling setup changed.
  const double primary_start =
      select_online_window(options_.online, state_, begin, now);
  note_clamped(primary_start);
  ftio::core::FtioOptions primary_opts = base;
  primary_opts.window_start = primary_start;
  const ftio::core::AnalysisWindow primary_window =
      ftio::core::select_analysis_window(curve, primary_opts);
  discretize_into_cache(primary_cache_, primary_window, base);

  // Ensemble windows: each member advances its own adaptive state and
  // extends its own sample cache (growing members keep a stable grid
  // anchor and reuse their clean prefix; moving look-back grids rebuild).
  std::vector<ftio::core::AnalysisWindow> member_windows(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    ftio::core::OnlineOptions member_options = options_.online;
    member_options.strategy = members_[i].strategy;
    const double member_start = select_online_window(
        member_options, members_[i].state, begin, now);
    note_clamped(member_start);
    ftio::core::FtioOptions member_opts = base;
    member_opts.window_start = member_start;
    member_windows[i] =
        ftio::core::select_analysis_window(curve, member_opts);
    discretize_into_cache(member_caches_[i], member_windows[i], base);
  }

  // One batch through the engine: primary + ensemble share the warm plan
  // cache and the worker pool, and members whose windows landed on the
  // same sample count (growing-window strategies converge there) get
  // their spectra and ACFs computed through the signal layer's batched
  // stage-major plan execution inside analyze_many.
  std::vector<TraceView> views;
  views.reserve(1 + members_.size());
  views.push_back(
      TraceView::of_samples(primary_cache_.samples, primary_window.start));
  for (std::size_t i = 0; i < members_.size(); ++i) {
    views.push_back(TraceView::of_samples(member_caches_[i].samples,
                                          member_windows[i].start));
  }
  auto results = analyze_many(views, base, options_.engine);

  ftio::core::finish_bandwidth_result(curve, primary_window,
                                      primary_cache_.samples, base,
                                      results[0]);
  // Feed the cheap tier's inter-arrival estimate into the fused verdict
  // as a corroborate-only vote: it can back (or dilute) a spectral
  // period but never flip an aperiodic verdict on its own. The
  // Prediction stream and refined_confidence stay untouched.
  if (options_.triage.enabled && options_.triage.bank_vote_weight > 0.0) {
    const ftio::core::TriageEstimate estimate = triage_bank_.estimate();
    if (estimate.valid()) {
      ftio::core::DetectorVerdict vote;
      vote.name = "triage-bank";
      vote.capabilities = ftio::core::kCapCorroborateOnly;
      vote.weight = options_.triage.bank_vote_weight;
      vote.found = true;
      vote.period = estimate.period;
      vote.frequency = estimate.frequency;
      vote.confidence = estimate.confidence;
      results[0].detector_verdicts.push_back(std::move(vote));
      results[0].fused = ftio::core::fuse_verdicts(
          results[0].detector_verdicts, base.detectors.fusion);
    }
  }
  const ftio::core::Prediction p =
      ftio::core::prediction_from_result(results[0], now);
  history_.push_back(p);
  trim_history(history_);
  ftio::core::record_online_result(state_, p);
  last_full_primary_ = p;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const ftio::core::Prediction mp =
        ftio::core::prediction_from_result(results[1 + i], now);
    members_[i].history.push_back(mp);
    trim_history(members_[i].history);
    ftio::core::record_online_result(members_[i].state, mp);
    members_[i].last_full = mp;
  }
  last_result_ = std::move(results[0]);
  intervals_stale_ = true;
  // Every cache consumed the dirty range above; fresh ingests restart it.
  dirty_since_ = kInfinity;
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
  // The earliest window start any strategy could select for its next
  // evaluation. A kGrowing strategy (or an adaptive one that has not
  // shrunk yet) pins this to the trace begin, which disables eviction —
  // their look-back genuinely spans the stream.
  double reach =
      ftio::core::peek_online_window(options_.online, state_, begin_time_,
                                     now);
  for (const auto& member : members_) {
    ftio::core::OnlineOptions member_options = options_.online;
    member_options.strategy = member.strategy;
    reach = std::min(reach,
                     ftio::core::peek_online_window(member_options,
                                                    member.state, begin_time_,
                                                    now));
  }
  const double lookback = now - reach;
  const double keep =
      std::max(lookback * options_.compaction.lookback_slack,
               options_.compaction.min_keep_seconds);
  const double horizon = now - keep;
  // The retained-span guarantee the whole O(window) tier rests on:
  // eviction never reaches past the earliest window any strategy could
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

  // Discretisation caches rebuild when their anchor moves (the retained
  // support start advanced past it); what compaction adds is releasing
  // the over-sized buffers a once-long window left behind.
  const auto shrink = [](SampleCache& cache) {
    if (cache.samples.capacity() > 2 * cache.samples.size()) {
      cache.samples.shrink_to_fit();
    }
  };
  shrink(primary_cache_);
  for (auto& cache : member_caches_) shrink(cache);
}

void StreamingSession::trim_history(
    std::vector<ftio::core::Prediction>& history) const {
  const std::size_t cap = options_.compaction.max_history;
  if (cap == 0 || history.size() <= cap) return;
  history.erase(history.begin(),
                history.end() - static_cast<std::ptrdiff_t>(cap));
}

std::size_t StreamingSession::memory_bytes() const {
  const ftio::util::LockGuard lock(mutex_);
  std::size_t total = sizeof(*this);
  total += bandwidth_.memory_bytes();
  total += cache_bytes(primary_cache_.samples);
  for (const auto& cache : member_caches_) total += cache_bytes(cache.samples);
  total += history_.capacity() * sizeof(ftio::core::Prediction);
  total += members_.capacity() * sizeof(Member);
  for (const auto& member : members_) {
    total += member.history.capacity() * sizeof(ftio::core::Prediction);
  }
  total += member_caches_.capacity() * sizeof(SampleCache);
  total += intervals_.capacity() * sizeof(ftio::core::FrequencyInterval);
  total += triage_bank_.memory_bytes();
  total += app_.capacity();
  return total;
}

const std::vector<ftio::core::Prediction>& StreamingSession::ensemble_history(
    std::size_t i) const {
  const ftio::util::LockGuard lock(mutex_);
  ftio::util::expect(i < members_.size(),
                     "StreamingSession: ensemble index out of range");
  return members_[i].history;
}

const std::vector<ftio::core::FrequencyInterval>&
StreamingSession::merged_intervals() const {
  const ftio::util::LockGuard lock(mutex_);
  if (intervals_stale_) {
    intervals_ = ftio::core::merge_predictions(history_);
    intervals_stale_ = false;
  }
  return intervals_;
}

}  // namespace ftio::engine
