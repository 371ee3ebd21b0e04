#include "engine/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/online.hpp"
#include "service/service.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"
#include "workloads/apps.hpp"

namespace core = ftio::core;
namespace eng = ftio::engine;
namespace tr = ftio::trace;

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

/// Streams `chunks` through both predictors and requires bit-identical
/// prediction sequences.
void expect_stream_identical(const core::OnlineOptions& options,
                             const std::vector<std::vector<tr::IoRequest>>&
                                 chunks) {
  core::OnlinePredictor reference(options);
  eng::StreamingOptions streaming;
  streaming.online = options;
  eng::StreamingSession session(streaming);

  for (std::size_t i = 0; i < chunks.size(); ++i) {
    reference.ingest(std::span<const tr::IoRequest>(chunks[i]));
    session.ingest(std::span<const tr::IoRequest>(chunks[i]));
    const auto expected = reference.predict();
    const auto got = session.predict();
    expect_identical(expected, got, static_cast<int>(i));
  }
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

TEST(StreamingSession, MergedIntervalsMatchOnlinePredictor) {
  const auto options = online_options(core::WindowStrategy::kAdaptive);
  core::OnlinePredictor reference(options);
  eng::StreamingOptions streaming;
  streaming.online = options;
  eng::StreamingSession session(streaming);
  for (const auto& chunk : periodic_chunks(10, 10.0)) {
    reference.ingest(std::span<const tr::IoRequest>(chunk));
    session.ingest(std::span<const tr::IoRequest>(chunk));
    reference.predict();
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

TEST(StreamingSession, EnsembleMatchesDedicatedPredictors) {
  // Every ensemble member must evolve exactly like a dedicated
  // OnlinePredictor running that strategy over the same stream.
  eng::StreamingOptions streaming;
  streaming.online = online_options(core::WindowStrategy::kAdaptive);
  streaming.ensemble = {core::WindowStrategy::kGrowing,
                        core::WindowStrategy::kFixedLength};
  eng::StreamingSession session(streaming);

  auto growing_options = streaming.online;
  growing_options.strategy = core::WindowStrategy::kGrowing;
  core::OnlinePredictor growing(growing_options);
  auto fixed_options = streaming.online;
  fixed_options.strategy = core::WindowStrategy::kFixedLength;
  core::OnlinePredictor fixed(fixed_options);

  auto chunks = periodic_chunks(12, 10.0);
  // Straggler reaching back into swept time: the growing member's sample
  // cache must drop its dirty suffix and still match the fresh predictor.
  chunks[9].push_back({1, 73.0, 76.5, 60'000'000, tr::IoKind::kWrite});
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    session.ingest(std::span<const tr::IoRequest>(chunks[i]));
    growing.ingest(std::span<const tr::IoRequest>(chunks[i]));
    fixed.ingest(std::span<const tr::IoRequest>(chunks[i]));
    session.predict();
    const auto expected_growing = growing.predict();
    const auto expected_fixed = fixed.predict();
    expect_identical(expected_growing, session.ensemble_history(0).back(),
                     static_cast<int>(i));
    expect_identical(expected_fixed, session.ensemble_history(1).back(),
                     static_cast<int>(i));
  }
  EXPECT_EQ(session.ensemble_history(0).size(), chunks.size());
  EXPECT_THROW(session.ensemble_history(2), ftio::util::InvalidArgument);
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
  // a negative dominant frequency, which compute_metrics rejects.
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
