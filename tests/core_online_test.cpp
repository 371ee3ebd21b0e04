// Unit tests of the Sec. II-D online-loop steps in core/online: window
// selection, hit bookkeeping, prediction records and interval merging.
// The composed loop is tested end to end in engine_streaming_test.
#include "core/online.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace core = ftio::core;

namespace {

core::OnlineOptions options(core::WindowStrategy strategy) {
  core::OnlineOptions o;
  o.base.sampling_frequency = 2.0;
  o.strategy = strategy;
  o.adaptive_hits = 3;
  o.adaptive_margin = 1;
  o.min_window_samples = 64;  // 32 s at fs = 2 Hz
  return o;
}

core::Prediction detection(double frequency, double window_start,
                           double window_end) {
  core::Prediction p;
  p.at_time = window_end;
  p.frequency = frequency;
  p.window_start = window_start;
  p.window_end = window_end;
  return p;
}

core::Prediction miss(double window_start, double window_end) {
  core::Prediction p;
  p.at_time = window_end;
  p.window_start = window_start;
  p.window_end = window_end;
  return p;
}

}  // namespace

TEST(OnlineWindow, GrowingAlwaysStartsAtBegin) {
  const auto o = options(core::WindowStrategy::kGrowing);
  core::OnlineWindowState s;
  s.consecutive_hits = 10;
  s.last_period = 10.0;
  EXPECT_DOUBLE_EQ(core::select_online_window(o, s, 0.0, 500.0), 0.0);
  EXPECT_DOUBLE_EQ(core::select_online_window(o, s, 7.0, 500.0), 7.0);
}

TEST(OnlineWindow, AdaptiveShrinksOnlyAfterKHits) {
  const auto o = options(core::WindowStrategy::kAdaptive);
  core::OnlineWindowState s;
  s.last_period = 10.0;
  s.consecutive_hits = 2;
  EXPECT_DOUBLE_EQ(core::select_online_window(o, s, 0.0, 200.0), 0.0);
  // k + margin = 4 periods of 10 s, above the 32 s sample floor.
  s.consecutive_hits = 3;
  EXPECT_DOUBLE_EQ(core::select_online_window(o, s, 0.0, 200.0), 160.0);
  EXPECT_DOUBLE_EQ(s.window_start, 160.0);
}

TEST(OnlineWindow, AdaptiveKeepsAnchorAfterStreakBreaks) {
  const auto o = options(core::WindowStrategy::kAdaptive);
  core::OnlineWindowState s;
  s.last_period = 10.0;
  s.consecutive_hits = 3;
  ASSERT_DOUBLE_EQ(core::select_online_window(o, s, 0.0, 200.0), 160.0);
  // A miss resets the streak; the window then grows from the last anchor
  // instead of jumping back to the start of the trace.
  core::record_online_result(s, miss(160.0, 200.0));
  EXPECT_EQ(s.consecutive_hits, 0u);
  EXPECT_DOUBLE_EQ(core::select_online_window(o, s, 0.0, 230.0), 160.0);
}

TEST(OnlineWindow, AdaptiveRespectsSampleFloor) {
  auto o = options(core::WindowStrategy::kAdaptive);
  core::OnlineWindowState s;
  s.last_period = 2.0;  // 4 periods = 8 s, below the 32 s floor
  s.consecutive_hits = 3;
  EXPECT_DOUBLE_EQ(core::select_online_window(o, s, 0.0, 100.0), 68.0);
  // With the floor off, the paper's bare (k + margin) x period rule holds.
  o.min_window_samples = 0;
  EXPECT_DOUBLE_EQ(core::select_online_window(o, s, 0.0, 100.0), 92.0);
}

TEST(OnlineWindow, AdaptiveNeverStartsBeforeBegin) {
  const auto o = options(core::WindowStrategy::kAdaptive);
  core::OnlineWindowState s;
  s.last_period = 10.0;
  s.consecutive_hits = 3;
  EXPECT_DOUBLE_EQ(core::select_online_window(o, s, 5.0, 30.0), 5.0);
}

TEST(OnlineWindow, FixedLengthLooksBackFixedWindow) {
  auto o = options(core::WindowStrategy::kFixedLength);
  o.fixed_window = 35.0;
  core::OnlineWindowState s;
  EXPECT_DOUBLE_EQ(core::select_online_window(o, s, 0.0, 100.0), 65.0);
  EXPECT_DOUBLE_EQ(core::select_online_window(o, s, 0.0, 20.0), 0.0);
}

TEST(OnlineWindow, PeekDoesNotCommitState) {
  const auto o = options(core::WindowStrategy::kAdaptive);
  core::OnlineWindowState s;
  s.last_period = 10.0;
  s.consecutive_hits = 3;
  EXPECT_DOUBLE_EQ(core::peek_online_window(o, s, 0.0, 200.0), 160.0);
  EXPECT_DOUBLE_EQ(s.window_start, 0.0);
  EXPECT_DOUBLE_EQ(core::select_online_window(o, s, 0.0, 200.0), 160.0);
}

TEST(OnlineWindow, RecordCountsHitsAndRemembersPeriod) {
  core::OnlineWindowState s;
  core::record_online_result(s, detection(0.1, 0.0, 10.0));
  core::record_online_result(s, detection(0.05, 0.0, 20.0));
  EXPECT_EQ(s.consecutive_hits, 2u);
  EXPECT_DOUBLE_EQ(s.last_period, 20.0);
  core::record_online_result(s, miss(0.0, 30.0));
  EXPECT_EQ(s.consecutive_hits, 0u);
  EXPECT_DOUBLE_EQ(s.last_period, 20.0);
}

TEST(OnlinePrediction, FromResultCopiesEvaluation) {
  core::FtioResult r;
  r.dft.dominant_frequency = 0.1;
  r.dft.confidence = 0.7;
  r.refined_confidence = 0.8;
  r.window_start = 12.0;
  r.window_end = 52.0;
  r.sample_count = 80;
  const auto p = core::prediction_from_result(r, 55.0);
  EXPECT_DOUBLE_EQ(p.at_time, 55.0);
  ASSERT_TRUE(p.found());
  EXPECT_DOUBLE_EQ(p.period(), 10.0);
  EXPECT_DOUBLE_EQ(p.confidence, 0.7);
  EXPECT_DOUBLE_EQ(p.refined_confidence, 0.8);
  EXPECT_DOUBLE_EQ(p.window_start, 12.0);
  EXPECT_DOUBLE_EQ(p.window_end, 52.0);
  EXPECT_EQ(p.sample_count, 80u);
  EXPECT_FALSE(p.from_triage);
}

TEST(MergePredictions, EmptyWithoutDetections) {
  const std::vector<core::Prediction> history{miss(0.0, 10.0),
                                              miss(0.0, 20.0)};
  EXPECT_TRUE(core::merge_predictions(history).empty());
  EXPECT_TRUE(core::merge_predictions({}).empty());
}

TEST(MergePredictions, SingleClusterCountsMissesInTotal) {
  // eps = 1 / 50 s = 0.02 Hz joins 0.098…0.102 into one interval.
  const std::vector<core::Prediction> history{
      miss(0.0, 50.0), detection(0.098, 0.0, 50.0),
      detection(0.100, 0.0, 60.0), detection(0.102, 0.0, 70.0)};
  const auto intervals = core::merge_predictions(history);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].count, 3u);
  EXPECT_DOUBLE_EQ(intervals[0].probability, 0.75);
  EXPECT_DOUBLE_EQ(intervals[0].low, 0.098);
  EXPECT_DOUBLE_EQ(intervals[0].high, 0.102);
  EXPECT_NEAR(intervals[0].center, 0.1, 1e-12);
}

TEST(MergePredictions, SeparateClustersSortedByProbability) {
  // eps = 1 / 100 s = 0.01 Hz keeps 0.025 Hz and 0.1 Hz apart.
  const std::vector<core::Prediction> history{
      detection(0.025, 0.0, 100.0), detection(0.1, 0.0, 100.0),
      detection(0.1, 0.0, 110.0), detection(0.1, 0.0, 120.0)};
  const auto intervals = core::merge_predictions(history);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(intervals[0].center, 0.1);
  EXPECT_DOUBLE_EQ(intervals[0].probability, 0.75);
  EXPECT_DOUBLE_EQ(intervals[1].center, 0.025);
  EXPECT_DOUBLE_EQ(intervals[1].probability, 0.25);
}

TEST(MergePredictions, CoarsestWindowSetsEps) {
  // The 10 s window's 0.1 Hz resolution joins 0.1 and 0.15 Hz, which
  // the 100 s windows alone would keep apart.
  std::vector<core::Prediction> history{detection(0.1, 0.0, 100.0),
                                        detection(0.15, 0.0, 100.0)};
  EXPECT_EQ(core::merge_predictions(history).size(), 2u);
  history.push_back(miss(90.0, 100.0));
  const auto intervals = core::merge_predictions(history);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].count, 2u);
}
