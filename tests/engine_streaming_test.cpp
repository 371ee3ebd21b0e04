#include "engine/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/online.hpp"
#include "service/service.hpp"
#include "trace/formats.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"
#include "workloads/apps.hpp"
#include "workloads/phase_library.hpp"
#include "workloads/semisynthetic.hpp"

namespace core = ftio::core;
namespace eng = ftio::engine;
namespace tr = ftio::trace;
namespace wl = ftio::workloads;

namespace {

/// Requests of one I/O phase: `ranks` ranks writing for `burst` seconds
/// starting at `start`.
std::vector<tr::IoRequest> phase(double start, double burst, int ranks,
                                 std::uint64_t bytes = 50'000'000) {
  std::vector<tr::IoRequest> reqs;
  for (int r = 0; r < ranks; ++r) {
    reqs.push_back({r, start, start + burst, bytes, tr::IoKind::kWrite});
  }
  return reqs;
}

core::OnlineOptions online_options(core::WindowStrategy strategy) {
  core::OnlineOptions o;
  o.base.sampling_frequency = 2.0;
  o.base.with_metrics = false;
  o.strategy = strategy;
  o.fixed_window = 35.0;
  return o;
}

/// Every Prediction field must match to the last bit (== on doubles).
void expect_identical(const core::Prediction& a, const core::Prediction& b,
                      int flush) {
  EXPECT_EQ(a.at_time, b.at_time) << "flush " << flush;
  ASSERT_EQ(a.frequency.has_value(), b.frequency.has_value())
      << "flush " << flush;
  if (a.frequency) {
    EXPECT_EQ(*a.frequency, *b.frequency) << "flush " << flush;
  }
  EXPECT_EQ(a.confidence, b.confidence) << "flush " << flush;
  EXPECT_EQ(a.refined_confidence, b.refined_confidence) << "flush " << flush;
  EXPECT_EQ(a.window_start, b.window_start) << "flush " << flush;
  EXPECT_EQ(a.window_end, b.window_end) << "flush " << flush;
  EXPECT_EQ(a.sample_count, b.sample_count) << "flush " << flush;
}

/// The session's oracle: the offline core::detect over every request
/// flushed so far, windowed by the same Sec. II-D rule.
class ReferenceLoop {
 public:
  explicit ReferenceLoop(core::OnlineOptions options)
      : options_(std::move(options)) {}

  core::Prediction flush(std::span<const tr::IoRequest> chunk) {
    trace_.requests.insert(trace_.requests.end(), chunk.begin(), chunk.end());
    const double now = trace_.end_time();
    core::FtioOptions opts = options_.base;
    opts.window_start = core::select_online_window(options_, state_,
                                                   trace_.begin_time(), now);
    opts.window_end = now;
    if (options_.auto_sampling_frequency) {
      opts.sampling_frequency = core::suggest_sampling_frequency(
          trace_, options_.min_auto_fs, options_.max_auto_fs);
    }
    const auto p = core::prediction_from_result(core::detect(trace_, opts), now);
    core::record_online_result(state_, p);
    history_.push_back(p);
    return p;
  }

  std::vector<core::FrequencyInterval> merged_intervals() const {
    return core::merge_predictions(history_);
  }

 private:
  core::OnlineOptions options_;
  tr::Trace trace_;
  core::OnlineWindowState state_;
  std::vector<core::Prediction> history_;
};

/// Streams `chunks` through the session and the reference loop and
/// requires bit-identical prediction sequences.
void expect_stream_identical(const core::OnlineOptions& options,
                             const std::vector<std::vector<tr::IoRequest>>&
                                 chunks) {
  ReferenceLoop reference(options);
  eng::StreamingOptions streaming;
  streaming.online = options;
  eng::StreamingSession session(streaming);

  for (std::size_t i = 0; i < chunks.size(); ++i) {
    session.ingest(std::span<const tr::IoRequest>(chunks[i]));
    const auto expected =
        reference.flush(std::span<const tr::IoRequest>(chunks[i]));
    const auto got = session.predict();
    expect_identical(expected, got, static_cast<int>(i));
  }
}

/// A session over `options` with compaction and triage off.
eng::StreamingSession make_session(const core::OnlineOptions& options) {
  eng::StreamingOptions streaming;
  streaming.online = options;
  return eng::StreamingSession(streaming);
}

std::vector<std::vector<tr::IoRequest>> periodic_chunks(int count,
                                                        double period,
                                                        int ranks = 4) {
  std::vector<std::vector<tr::IoRequest>> chunks;
  for (int i = 0; i < count; ++i) {
    chunks.push_back(phase(i * period, 2.0, ranks));
  }
  return chunks;
}

}  // namespace

TEST(StreamingSession, PredictWithoutDataThrows) {
  eng::StreamingOptions o;
  o.online = online_options(core::WindowStrategy::kAdaptive);
  eng::StreamingSession session(o);
  EXPECT_THROW(session.predict(), ftio::util::InvalidArgument);
  // An empty flush is still no data.
  session.ingest(std::span<const tr::IoRequest>{});
  EXPECT_THROW(session.predict(), ftio::util::InvalidArgument);
}

TEST(StreamingSession, RejectsInvalidOptions) {
  const auto rejects = [](const eng::StreamingOptions& o) {
    EXPECT_THROW(eng::StreamingSession{o}, ftio::util::InvalidArgument);
  };
  eng::StreamingOptions o;
  o.online = online_options(core::WindowStrategy::kAdaptive);
  o.online.adaptive_hits = 0;
  rejects(o);

  o.online = online_options(core::WindowStrategy::kFixedLength);
  o.online.fixed_window = 0.0;
  rejects(o);

  // A bad auto-fs clamp range fails at build time, not on every predict.
  o.online = online_options(core::WindowStrategy::kGrowing);
  o.online.auto_sampling_frequency = true;
  o.online.min_auto_fs = 0.0;
  rejects(o);
  o.online.min_auto_fs = 10.0;
  o.online.max_auto_fs = 5.0;
  rejects(o);
  // The range is only read when auto fs is on.
  o.online.auto_sampling_frequency = false;
  EXPECT_NO_THROW(eng::StreamingSession{o});
}

TEST(StreamingSession, ConvergesOnPeriodicStream) {
  // HACC-IO-like loop: a phase every 10 s, predictions after each flush.
  auto session = make_session(online_options(core::WindowStrategy::kAdaptive));
  core::Prediction last;
  for (const auto& chunk : periodic_chunks(10, 10.0)) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    last = session.predict();
  }
  ASSERT_TRUE(last.found());
  EXPECT_NEAR(last.period(), 10.0, 1.0);
  EXPECT_EQ(session.history().size(), 10u);
}

TEST(StreamingSession, AdaptiveWindowShrinksAfterKHits) {
  auto options = online_options(core::WindowStrategy::kAdaptive);
  options.adaptive_hits = 3;
  auto session = make_session(options);
  for (const auto& chunk : periodic_chunks(12, 10.0)) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    session.predict();
  }
  const auto& h = session.history();
  // Early predictions see the whole history; late ones only about
  // adaptive_hits + adaptive_margin = 4 periods (fs = 2 Hz keeps the
  // 64-sample floor, 32 s, below that 40 s window).
  EXPECT_NEAR(h.front().window_start, 0.0, 1e-9);
  const auto& last = h.back();
  EXPECT_GT(last.window_start, last.window_end - 4.5 * 10.0);
  // Shrinking must not have broken detection.
  ASSERT_TRUE(last.found());
  EXPECT_NEAR(last.period(), 10.0, 1.0);
}

TEST(StreamingSession, GrowingStrategyKeepsFullWindow) {
  auto session = make_session(online_options(core::WindowStrategy::kGrowing));
  for (const auto& chunk : periodic_chunks(8, 10.0)) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    session.predict();
  }
  for (const auto& pred : session.history()) {
    EXPECT_NEAR(pred.window_start, 0.0, 1e-9);
  }
}

TEST(StreamingSession, FixedLengthWindow) {
  auto options = online_options(core::WindowStrategy::kFixedLength);
  options.fixed_window = 35.0;
  auto session = make_session(options);
  for (const auto& chunk : periodic_chunks(10, 10.0)) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    session.predict();
  }
  const auto& last = session.history().back();
  EXPECT_NEAR(last.window_end - last.window_start, 35.0, 1.0);
}

TEST(StreamingSession, BehaviourChangeIsTracked) {
  // Period 10 s for 8 phases, then period 20 s for 10 phases: the
  // adaptive window must let the session relearn the new cadence.
  auto options = online_options(core::WindowStrategy::kAdaptive);
  options.adaptive_hits = 3;
  auto session = make_session(options);
  double t = 0.0;
  core::Prediction last;
  for (int i = 0; i < 18; ++i) {
    session.ingest(std::span<const tr::IoRequest>(phase(t, 2.0, 4)));
    last = session.predict();
    t += i < 8 ? 10.0 : 20.0;
  }
  ASSERT_TRUE(last.found());
  EXPECT_NEAR(last.period(), 20.0, 2.5);
}

TEST(StreamingSession, MergedIntervalsSingleCluster) {
  auto session = make_session(online_options(core::WindowStrategy::kAdaptive));
  for (const auto& chunk : periodic_chunks(10, 10.0)) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    session.predict();
  }
  const auto& intervals = session.merged_intervals();
  ASSERT_FALSE(intervals.empty());
  const auto& top = intervals.front();
  EXPECT_GE(top.probability, 0.5);
  EXPECT_LE(top.low, 0.1);
  EXPECT_GE(top.high, 0.095);
  EXPECT_NEAR(top.center, 0.1, 0.02);
}

TEST(StreamingSession, MergedIntervalsEmptyWithoutDetections) {
  auto session = make_session(online_options(core::WindowStrategy::kAdaptive));
  // A single short request cannot produce a detection.
  const std::vector<tr::IoRequest> one{{0, 0.0, 1.0, 10, tr::IoKind::kWrite}};
  session.ingest(std::span<const tr::IoRequest>(one));
  session.predict();
  EXPECT_TRUE(session.merged_intervals().empty());
}

TEST(StreamingSession, ProbabilitiesSumToAtMostOne) {
  auto session = make_session(online_options(core::WindowStrategy::kAdaptive));
  double t = 0.0;
  for (int i = 0; i < 12; ++i) {
    // Six 2 s bursts every 10 s, then six 5 s bursts every 40 s.
    const bool early = i < 6;
    session.ingest(std::span<const tr::IoRequest>(
        phase(t, early ? 2.0 : 5.0, 4)));
    session.predict();
    t += early ? 10.0 : 40.0;
  }
  double sum = 0.0;
  for (const auto& iv : session.merged_intervals()) sum += iv.probability;
  EXPECT_LE(sum, 1.0 + 1e-9);
  EXPECT_GT(sum, 0.0);
}

TEST(StreamingSession, BitIdenticalGrowingStrategy) {
  expect_stream_identical(online_options(core::WindowStrategy::kGrowing),
                          periodic_chunks(12, 10.0));
}

TEST(StreamingSession, BitIdenticalAdaptiveStrategy) {
  expect_stream_identical(online_options(core::WindowStrategy::kAdaptive),
                          periodic_chunks(14, 10.0));
}

TEST(StreamingSession, BitIdenticalFixedLengthStrategy) {
  expect_stream_identical(online_options(core::WindowStrategy::kFixedLength),
                          periodic_chunks(12, 10.0));
}

TEST(StreamingSession, BitIdenticalWithBinAverageSampling) {
  auto options = online_options(core::WindowStrategy::kGrowing);
  options.base.sampling_mode = ftio::signal::SamplingMode::kBinAverage;
  expect_stream_identical(options, periodic_chunks(10, 10.0));
}

TEST(StreamingSession, BitIdenticalOnPeriodChange) {
  auto chunks = periodic_chunks(8, 10.0);
  for (int i = 0; i < 8; ++i) {
    chunks.push_back(phase(80.0 + i * 20.0, 2.0, 4));
  }
  expect_stream_identical(online_options(core::WindowStrategy::kAdaptive),
                          chunks);
}

TEST(StreamingSession, BitIdenticalWithOutOfOrderFlush) {
  // A late flush delivers requests that overlap already-ingested time
  // (stragglers finishing after their phase): the incremental curve must
  // re-sweep the dirty suffix and still match the full rebuild.
  auto chunks = periodic_chunks(10, 10.0);
  // Straggler inside phase 6 arrives with the phase-8 flush.
  chunks[8].push_back({2, 61.0, 64.5, 80'000'000, tr::IoKind::kWrite});
  // One more reaching back two phases, delivered last.
  chunks[9].push_back({1, 71.5, 74.0, 20'000'000, tr::IoKind::kWrite});
  expect_stream_identical(online_options(core::WindowStrategy::kGrowing),
                          chunks);
  expect_stream_identical(online_options(core::WindowStrategy::kAdaptive),
                          chunks);
}

TEST(StreamingSession, BitIdenticalWithAutoSamplingFrequency) {
  auto options = online_options(core::WindowStrategy::kGrowing);
  options.auto_sampling_frequency = true;
  options.max_auto_fs = 20.0;
  std::vector<std::vector<tr::IoRequest>> chunks;
  for (int i = 0; i < 10; ++i) {
    // Shrinking burst lengths change the derived fs between flushes.
    chunks.push_back(phase(i * 5.0, 0.5 - 0.02 * i, 4, 10'000'000));
  }
  expect_stream_identical(options, chunks);
}

TEST(StreamingSession, BitIdenticalWithKindFilterAndReads) {
  auto options = online_options(core::WindowStrategy::kGrowing);
  options.base.kind = tr::IoKind::kWrite;
  std::vector<std::vector<tr::IoRequest>> chunks;
  for (int i = 0; i < 10; ++i) {
    auto chunk = phase(i * 10.0, 2.0, 4);
    // Interleaved reads must not appear in the curve but still count for
    // the trace bounds.
    chunk.push_back({0, i * 10.0 + 4.0, i * 10.0 + 5.0, 30'000'000,
                     tr::IoKind::kRead});
    chunks.push_back(std::move(chunk));
  }
  expect_stream_identical(options, chunks);
}

TEST(StreamingSession, BandwidthMatchesOfflineSweep) {
  eng::StreamingOptions o;
  o.online = online_options(core::WindowStrategy::kGrowing);
  eng::StreamingSession session(o);
  tr::Trace accumulated;
  for (const auto& chunk : periodic_chunks(9, 10.0)) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    accumulated.requests.insert(accumulated.requests.end(), chunk.begin(),
                                chunk.end());
  }
  // Straggler pair exercising the dirty re-sweep.
  std::vector<tr::IoRequest> late{
      {0, 42.0, 47.0, 10'000'000, tr::IoKind::kWrite}};
  session.ingest(std::span<const tr::IoRequest>(late));
  accumulated.requests.push_back(late[0]);

  const auto reference = tr::bandwidth_signal(accumulated);
  const auto& incremental = session.bandwidth();
  ASSERT_EQ(incremental.times().size(), reference.times().size());
  ASSERT_EQ(incremental.values().size(), reference.values().size());
  for (std::size_t i = 0; i < reference.times().size(); ++i) {
    EXPECT_EQ(incremental.times()[i], reference.times()[i]) << "boundary " << i;
  }
  for (std::size_t i = 0; i < reference.values().size(); ++i) {
    EXPECT_EQ(incremental.values()[i], reference.values()[i])
        << "segment " << i;
  }
}

TEST(StreamingSession, MergedIntervalsMatchReference) {
  const auto options = online_options(core::WindowStrategy::kAdaptive);
  ReferenceLoop reference(options);
  auto session = make_session(options);
  for (const auto& chunk : periodic_chunks(10, 10.0)) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    reference.flush(std::span<const tr::IoRequest>(chunk));
    session.predict();
  }
  const auto expected = reference.merged_intervals();
  const auto& got = session.merged_intervals();
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].low, got[i].low);
    EXPECT_EQ(expected[i].high, got[i].high);
    EXPECT_EQ(expected[i].center, got[i].center);
    EXPECT_EQ(expected[i].probability, got[i].probability);
    EXPECT_EQ(expected[i].count, got[i].count);
  }
}

TEST(StreamingSession, StrategiesMatchDedicatedReferences) {
  // A session running each look-back rule must evolve exactly like a
  // reference loop running that strategy over the same stream.
  auto chunks = periodic_chunks(12, 10.0);
  // Straggler reaching back into swept time: the growing session's sample
  // cache must drop its dirty suffix and still match the reference.
  chunks[9].push_back({1, 73.0, 76.5, 60'000'000, tr::IoKind::kWrite});
  for (const auto strategy : {core::WindowStrategy::kGrowing,
                              core::WindowStrategy::kFixedLength}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    expect_stream_identical(online_options(strategy), chunks);
  }
}

TEST(StreamingSession, TraceAggregatesMatch) {
  eng::StreamingOptions o;
  o.online = online_options(core::WindowStrategy::kGrowing);
  eng::StreamingSession session(o);
  tr::Trace chunk;
  chunk.app = "hacc-io";
  chunk.rank_count = 16;
  chunk.requests = phase(5.0, 2.0, 16);
  session.ingest(chunk);
  EXPECT_EQ(session.app(), "hacc-io");
  EXPECT_EQ(session.rank_count(), 16);
  EXPECT_EQ(session.request_count(), 16u);
  EXPECT_DOUBLE_EQ(session.begin_time(), 5.0);
  EXPECT_DOUBLE_EQ(session.end_time(), 7.0);

  // A bare request span carries no metadata: ranks come from the
  // requests themselves.
  eng::StreamingSession bare(o);
  bare.ingest(std::span<const tr::IoRequest>(phase(0.0, 1.0, 8)));
  EXPECT_EQ(bare.rank_count(), 8);
  EXPECT_TRUE(bare.app().empty());
}

// The decoders accept any int rank, and the highest one reaches the
// session's rank count, which must not overflow computing rank + 1.
TEST(StreamingSession, HighestRankCountsWithoutOverflow) {
  constexpr int kHighest = std::numeric_limits<int>::max();
  const tr::Trace from_jsonl = tr::from_jsonl(
      R"({"type":"io","kind":"write","rank":2147483647,"start":0.5,)"
      R"("end":1.5,"bytes":4096})");
  tr::Trace written;
  written.requests.push_back({kHighest, 2.5, 3.5, 4096, tr::IoKind::kRead});
  const tr::Trace from_msgpack = tr::from_msgpack(tr::to_msgpack(written));
  for (const tr::Trace* chunk : {&from_jsonl, &from_msgpack}) {
    ASSERT_EQ(chunk->requests.size(), 1u);
    ASSERT_EQ(chunk->requests[0].rank, kHighest);
  }
  auto session = make_session(online_options(core::WindowStrategy::kGrowing));
  session.ingest(std::span<const tr::IoRequest>(from_jsonl.requests));
  EXPECT_EQ(session.rank_count(), kHighest);
  session.ingest(std::span<const tr::IoRequest>(from_msgpack.requests));
  EXPECT_EQ(session.rank_count(), kHighest);
  EXPECT_EQ(session.request_count(), 2u);
}

TEST(StreamingSession, LastResultCarriesBandwidthFields) {
  eng::StreamingOptions o;
  o.online = online_options(core::WindowStrategy::kGrowing);
  o.online.base.with_metrics = true;
  eng::StreamingSession session(o);
  tr::Trace accumulated;
  for (const auto& chunk : periodic_chunks(10, 10.0)) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    accumulated.requests.insert(accumulated.requests.end(), chunk.begin(),
                                chunk.end());
    session.predict();
  }
  core::FtioOptions opts = o.online.base;
  opts.window_start = session.current_window_start();
  const auto reference = core::detect(accumulated, opts);
  const auto& got = session.last_result();
  ASSERT_TRUE(got.periodic());
  EXPECT_EQ(reference.abstraction_error, got.abstraction_error);
  ASSERT_TRUE(got.metrics.has_value());
  ASSERT_TRUE(reference.metrics.has_value());
  EXPECT_EQ(reference.metrics->sigma_time, got.metrics->sigma_time);
}
TEST(StreamingSession, LammpsSecondFlushHasPositiveFrequency) {
  // Regression: the daemon's session template on a 256-rank LAMMPS run.
  // At its second flush (window of ~280 samples) the winning bin is bin
  // 1 under a larger DC bin, and the unguarded peak refinement reported
  // a negative dominant frequency. The template skips compute_metrics,
  // so analyze_spectrum's positive-frequency contract (Debug and
  // sanitizer builds) and the assertions below are the checks left.
  ftio::workloads::LammpsConfig config;
  config.ranks = 256;
  auto trace = ftio::workloads::generate_lammps_trace(config);
  trace.sort_by_start();
  // Flushes end at idle gaps of at least a second (one per dump phase).
  std::vector<std::size_t> cuts = {0};
  double last_end = trace.requests.front().end;
  for (std::size_t i = 1; i < trace.requests.size(); ++i) {
    const auto& r = trace.requests[i];
    if (r.start - last_end >= 1.0) cuts.push_back(i);
    last_end = std::max(last_end, r.end);
  }
  ASSERT_GE(cuts.size(), 3u);
  eng::StreamingSession session(ftio::service::default_session_template());
  const std::span<const tr::IoRequest> all(trace.requests);
  session.ingest(all.subspan(0, cuts[1]));
  session.predict();
  session.ingest(all.subspan(cuts[1], cuts[2] - cuts[1]));
  core::Prediction second;
  ASSERT_NO_THROW(second = session.predict());
  ASSERT_TRUE(second.frequency.has_value());
  EXPECT_GT(*second.frequency, 0.0);
  EXPECT_GT(second.sample_count, 200u);
}

TEST(StreamingSession, DaemonTemplateMatchesMetricsOnTemplate) {
  // The daemon's template turns with_metrics off: no prediction field
  // reads the metrics or the abstraction error, so predictions and
  // history must equal those of the same template with them on, bit for
  // bit, through compaction and triage. Semi-synthetic streams, one
  // flush per I/O phase; sigma = 22 s varies the compute phases.
  wl::PhaseLibraryConfig library_config;
  library_config.phase_count = 20;
  library_config.processes = 8;
  const auto library = wl::make_phase_library(library_config);
  const eng::StreamingOptions daemon =
      ftio::service::default_session_template();
  ASSERT_FALSE(daemon.online.base.with_metrics);
  eng::StreamingOptions with_metrics = daemon;
  with_metrics.online.base.with_metrics = true;

  std::size_t skipped = 0;
  std::size_t evicted = 0;
  for (const double sigma : {0.0, 22.0}) {
    SCOPED_TRACE(sigma);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(seed);
      wl::SemiSyntheticConfig config;
      config.iterations = 40;
      config.tcpu_sigma = sigma;
      config.seed = seed;
      auto trace = wl::generate_semisynthetic(config, library).trace;
      trace.sort_by_start();
      eng::StreamingSession lean(daemon);
      eng::StreamingSession full(with_metrics);
      const std::span<const tr::IoRequest> all(trace.requests);
      std::size_t begin = 0;
      double last_end = all.front().end;
      int flush = 0;
      for (std::size_t i = 1; i <= all.size(); ++i) {
        if (i < all.size() && all[i].start - last_end < 1.0) {
          last_end = std::max(last_end, all[i].end);
          continue;
        }
        const auto chunk = all.subspan(begin, i - begin);
        lean.ingest(chunk);
        full.ingest(chunk);
        const auto a = lean.predict();
        const auto b = full.predict();
        expect_identical(a, b, flush);
        EXPECT_EQ(a.from_triage, b.from_triage) << "flush " << flush;
        ++flush;
        begin = i;
        if (i < all.size()) last_end = all[i].end;
      }
      ASSERT_GE(flush, 30);
      ASSERT_EQ(lean.history().size(), full.history().size());
      for (std::size_t k = 0; k < lean.history().size(); ++k) {
        expect_identical(lean.history()[k], full.history()[k],
                         static_cast<int>(k));
      }
      EXPECT_FALSE(lean.last_result().metrics.has_value());
      EXPECT_EQ(lean.last_result().abstraction_error, 0.0);
      ASSERT_TRUE(full.last_result().periodic());
      EXPECT_TRUE(full.last_result().metrics.has_value());
      skipped += lean.triage_stats().skipped;
      evicted += lean.compaction_stats().evicted_events;
    }
  }
  // Both tiers the template enables did work.
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(evicted, 0u);
}
