#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "core/online.hpp"
#include "engine/streaming.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"

namespace core = ftio::core;
namespace eng = ftio::engine;
namespace tr = ftio::trace;

namespace {

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

std::vector<std::vector<tr::IoRequest>> periodic_chunks(int count,
                                                        double period,
                                                        int ranks = 4) {
  std::vector<std::vector<tr::IoRequest>> chunks;
  for (int i = 0; i < count; ++i) {
    chunks.push_back(phase(i * period, 2.0, ranks));
  }
  return chunks;
}

/// Streams `chunks` through a compacted and an uncompacted session and
/// requires bit-identical prediction sequences. Returns the compacted
/// session's final stats for further assertions.
eng::CompactionStats expect_compacted_identical(
    const core::OnlineOptions& options,
    const std::vector<std::vector<tr::IoRequest>>& chunks) {
  eng::StreamingOptions plain;
  plain.online = options;
  eng::StreamingSession reference(plain);

  eng::StreamingOptions compacted = plain;
  compacted.compaction.enabled = true;
  eng::StreamingSession session(compacted);

  for (std::size_t i = 0; i < chunks.size(); ++i) {
    reference.ingest(std::span<const tr::IoRequest>(chunks[i]));
    session.ingest(std::span<const tr::IoRequest>(chunks[i]));
    const auto expected = reference.predict();
    const auto got = session.predict();
    expect_identical(expected, got, static_cast<int>(i));
  }
  return session.compaction_stats();
}

}  // namespace

TEST(SessionCompaction, RejectsBadOptions) {
  eng::StreamingOptions o;
  o.online = online_options(core::WindowStrategy::kFixedLength);
  o.compaction.enabled = true;
  o.compaction.lookback_slack = 0.5;
  EXPECT_THROW(eng::StreamingSession{o}, ftio::util::InvalidArgument);

  o.compaction.lookback_slack = 2.0;
  o.online.base.skip_first_phase = true;
  EXPECT_THROW(eng::StreamingSession{o}, ftio::util::InvalidArgument);
}

TEST(SessionCompaction, BitIdenticalFixedLengthWithEviction) {
  const auto stats = expect_compacted_identical(
      online_options(core::WindowStrategy::kFixedLength),
      periodic_chunks(30, 10.0));
  // 300 s of stream against a 35 s look-back (70 s retained with slack 2):
  // the prefix must actually have been evicted for the test to mean
  // anything.
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.evicted_events, 0u);
  EXPECT_GT(stats.evicted_segments, 0u);
  EXPECT_GT(stats.retained_start, 0.0);
  EXPECT_EQ(stats.clamped_windows, 0u);
}

TEST(SessionCompaction, BitIdenticalAdaptiveSteadyPeriod) {
  const auto stats = expect_compacted_identical(
      online_options(core::WindowStrategy::kAdaptive),
      periodic_chunks(30, 10.0));
  // The adaptive window shrinks to (k + margin) x period after k hits, so
  // eviction kicks in once the shrink happened.
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_EQ(stats.clamped_windows, 0u);
}

TEST(SessionCompaction, BitIdenticalEveryLookbackStrategy) {
  // The compaction horizon follows whichever look-back the session's
  // strategy reaches next, so every strategy stays bit-identical to its
  // uncompacted twin; the growing one simply never evicts.
  for (const auto strategy : {core::WindowStrategy::kGrowing,
                              core::WindowStrategy::kAdaptive,
                              core::WindowStrategy::kFixedLength}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    const auto stats = expect_compacted_identical(online_options(strategy),
                                                  periodic_chunks(30, 10.0));
    EXPECT_EQ(stats.compactions > 0,
              strategy != core::WindowStrategy::kGrowing);
    EXPECT_EQ(stats.clamped_windows, 0u);
  }
}

TEST(SessionCompaction, GrowingStrategyPinsEvictionOff) {
  eng::StreamingOptions o;
  o.online = online_options(core::WindowStrategy::kGrowing);
  o.compaction.enabled = true;
  eng::StreamingSession session(o);
  for (const auto& chunk : periodic_chunks(25, 10.0)) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    session.predict();
  }
  // A growing session's next window always starts at the trace begin, so
  // nothing may ever be evicted.
  EXPECT_EQ(session.compaction_stats().compactions, 0u);
  EXPECT_EQ(session.compaction_stats().evicted_events, 0u);
  EXPECT_DOUBLE_EQ(session.bandwidth().start_time(), 0.0);
}

TEST(SessionCompaction, RetainedCurveSuffixIsBitIdentical) {
  eng::StreamingOptions plain;
  plain.online = online_options(core::WindowStrategy::kFixedLength);
  eng::StreamingSession reference(plain);

  auto compacted = plain;
  compacted.compaction.enabled = true;
  eng::StreamingSession session(compacted);

  for (const auto& chunk : periodic_chunks(30, 10.0)) {
    reference.ingest(std::span<const tr::IoRequest>(chunk));
    session.ingest(std::span<const tr::IoRequest>(chunk));
    reference.predict();
    session.predict();
  }
  const auto& full = session.compaction_stats();
  ASSERT_GT(full.evicted_segments, 0u);

  // The compacted curve must equal the uncompacted curve's suffix from
  // the retained start on, boundary for boundary and bit for bit.
  const auto& a = session.bandwidth();
  const auto& b = reference.bandwidth();
  ASSERT_LT(a.times().size(), b.times().size());
  const std::size_t offset = b.times().size() - a.times().size();
  for (std::size_t i = 0; i < a.times().size(); ++i) {
    EXPECT_EQ(a.times()[i], b.times()[offset + i]) << "boundary " << i;
  }
  const std::size_t voffset = b.values().size() - a.values().size();
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    EXPECT_EQ(a.values()[i], b.values()[voffset + i]) << "segment " << i;
  }
  // Point queries inside the retained span agree too.
  for (double t = a.start_time(); t < a.end_time(); t += 3.7) {
    EXPECT_EQ(a.value_at(t), b.value_at(t)) << "t=" << t;
  }
}

TEST(SessionCompaction, StragglerInsideRetainedWindowStaysIdentical) {
  auto chunks = periodic_chunks(30, 10.0);
  // Straggler reaching ~15 s back from the stream head at flush 28 —
  // well inside the 70 s retained span of the 35 s fixed window.
  chunks[28].push_back({1, 265.0, 268.5, 60'000'000, tr::IoKind::kWrite});
  const auto stats = expect_compacted_identical(
      online_options(core::WindowStrategy::kFixedLength), chunks);
  EXPECT_GT(stats.compactions, 0u);
}

TEST(SessionCompaction, LateDataBelowFloorIsDropped) {
  eng::StreamingOptions o;
  o.online = online_options(core::WindowStrategy::kFixedLength);
  o.compaction.enabled = true;
  eng::StreamingSession session(o);
  for (const auto& chunk : periodic_chunks(30, 10.0)) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    session.predict();
  }
  const double floor = session.bandwidth().start_time();
  ASSERT_GT(floor, 0.0);
  const auto times_before = session.bandwidth().times();

  // A request entirely before the retained floor must not resurrect
  // evicted history (the curve would be wrong there anyway: its prefix
  // levels are folded into the base level).
  std::vector<tr::IoRequest> ancient{
      {0, 1.0, 3.0, 10'000'000, tr::IoKind::kWrite}};
  session.ingest(std::span<const tr::IoRequest>(ancient));
  EXPECT_EQ(session.bandwidth().start_time(), floor);
  EXPECT_EQ(session.bandwidth().times().size(), times_before.size());
  // The session keeps predicting without throwing.
  EXPECT_NO_THROW(session.predict());
}

TEST(SessionCompaction, AdaptiveRegrowthNeverOutrunsRetention) {
  // The compaction horizon is derived by peeking the next window of the
  // exact strategy state the following predict() will select with, so
  // retention always covers the next reachable look-back: even under the
  // tightest legal slack and a hard cadence change, no window may ever be
  // clamped at the retained edge.
  eng::StreamingOptions o;
  o.online = online_options(core::WindowStrategy::kAdaptive);
  o.online.min_window_samples = 0;    // bare k x period rule
  o.compaction.enabled = true;
  o.compaction.lookback_slack = 1.0;  // tightest legal retention
  eng::StreamingSession session(o);
  // Steady period 5 shrinks the window to 4 x 5 = 20 s, so slack 1 only
  // retains ~20 s of curve; then the cadence stretches to 18 s and the
  // window regrows through the miss streak and re-lock.
  for (int i = 0; i < 20; ++i) {
    const auto chunk = phase(i * 5.0, 1.0, 4);
    session.ingest(std::span<const tr::IoRequest>(chunk));
    session.predict();
  }
  double start = 100.0;
  for (int i = 0; i < 12; ++i) {
    const auto chunk = phase(start, 1.0, 4);
    session.ingest(std::span<const tr::IoRequest>(chunk));
    EXPECT_NO_THROW(session.predict());
    start += 18.0;
  }
  const auto& stats = session.compaction_stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_EQ(stats.clamped_windows, 0u);
  // Every prediction stayed within the retained curve support.
  EXPECT_GE(session.history().back().window_start,
            session.bandwidth().start_time());
}

TEST(SessionCompaction, LongStreamStatePlateaus) {
  eng::StreamingOptions o;
  o.online = online_options(core::WindowStrategy::kFixedLength);
  o.compaction.enabled = true;
  o.compaction.max_history = 64;
  eng::StreamingSession session(o);

  const int kFlushes = 600;
  std::size_t mid_events = 0;
  std::size_t mid_segments = 0;
  std::size_t mid_bytes = 0;
  for (int i = 0; i < kFlushes; ++i) {
    const auto chunk = phase(i * 10.0, 2.0, 4);
    session.ingest(std::span<const tr::IoRequest>(chunk));
    session.predict();
    if (i == kFlushes / 2) {
      mid_events = session.bandwidth().times().size();
      mid_segments = session.bandwidth().segment_count();
      mid_bytes = session.memory_bytes();
    }
  }
  // O(window): once the window filled, state stops growing with the
  // stream. Allow a tiny wobble for boundary alignment of the cut.
  EXPECT_LE(session.bandwidth().times().size(), mid_events + 4);
  EXPECT_LE(session.bandwidth().segment_count(), mid_segments + 4);
  EXPECT_LE(session.memory_bytes(), mid_bytes + mid_bytes / 4);
  EXPECT_EQ(session.history().size(), 64u);
  EXPECT_GT(session.compaction_stats().compactions, 100u);
  // merged_intervals works over the retained history tail.
  EXPECT_FALSE(session.merged_intervals().empty());
}

TEST(SessionCompaction, MinKeepSecondsWidensRetention) {
  eng::StreamingOptions o;
  o.online = online_options(core::WindowStrategy::kFixedLength);
  o.compaction.enabled = true;
  o.compaction.min_keep_seconds = 150.0;
  eng::StreamingSession session(o);
  for (const auto& chunk : periodic_chunks(30, 10.0)) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    session.predict();
  }
  // now = 292; at least 150 s must remain even though the 35 s window
  // only needs 70.
  EXPECT_LE(session.bandwidth().start_time(),
            session.end_time() - 150.0 + 1e-9);
}
