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
                                                        int ranks = 4,
                                                        double start = 0.0) {
  std::vector<std::vector<tr::IoRequest>> chunks;
  for (int i = 0; i < count; ++i) {
    chunks.push_back(phase(start + i * period, 2.0, ranks));
  }
  return chunks;
}

eng::StreamingOptions triage_options(core::WindowStrategy strategy) {
  eng::StreamingOptions o;
  o.online = online_options(strategy);
  o.triage.enabled = true;
  o.triage.bank.min_period = 2.0;
  o.triage.bank.max_period = 128.0;
  return o;
}

/// Streams `chunks` through a triaged and an always-analyse session.
/// Every flush where the triaged session ran the full pipeline must be
/// bit-identical to the always-analyse path; skipped flushes must carry
/// the from_triage stamp. Returns the triaged session's stats.
eng::TriageStats expect_full_runs_identical(
    const eng::StreamingOptions& triaged_options,
    const std::vector<std::vector<tr::IoRequest>>& chunks) {
  eng::StreamingOptions plain = triaged_options;
  plain.triage.enabled = false;
  eng::StreamingSession reference(plain);
  eng::StreamingSession session(triaged_options);

  for (std::size_t i = 0; i < chunks.size(); ++i) {
    reference.ingest(std::span<const tr::IoRequest>(chunks[i]));
    session.ingest(std::span<const tr::IoRequest>(chunks[i]));
    const auto expected = reference.predict();
    const auto got = session.predict();
    if (got.from_triage) {
      // A skipped flush re-stamps the last full prediction at `now`.
      EXPECT_EQ(got.at_time, expected.at_time) << "flush " << i;
      EXPECT_TRUE(got.found()) << "flush " << i;
    } else {
      expect_identical(expected, got, static_cast<int>(i));
      EXPECT_FALSE(got.from_triage);
    }
  }
  return session.triage_stats();
}

}  // namespace

TEST(SessionTriage, RejectsBadOptions) {
  eng::StreamingOptions o = triage_options(core::WindowStrategy::kFixedLength);
  o.triage.warmup_analyses = 0;
  EXPECT_THROW(eng::StreamingSession{o}, ftio::util::InvalidArgument);
}

TEST(SessionTriage, SkipsMostFlushesOnSteadyPeriod) {
  const auto stats = expect_full_runs_identical(
      triage_options(core::WindowStrategy::kFixedLength),
      periodic_chunks(60, 10.0));
  // Steady 10 s cadence: after warmup the bank stays stable and the
  // session skips the heavy pipeline on the vast majority of flushes.
  EXPECT_GE(stats.skipped, 45u);
  EXPECT_EQ(stats.skipped + stats.full_analyses, 60u);
  EXPECT_EQ(stats.drift_retriggers, 0u);
}

TEST(SessionTriage, GrowingStrategyFullRunsIdentical) {
  const auto stats = expect_full_runs_identical(
      triage_options(core::WindowStrategy::kGrowing),
      periodic_chunks(40, 10.0));
  EXPECT_GE(stats.skipped, 30u);
}

TEST(SessionTriage, AdaptiveSteadyPeriodFullRunsIdentical) {
  // The synthesized predictions feed the adaptive state exactly like real
  // ones, so on a steady trace the full runs land on the same windows.
  const auto stats = expect_full_runs_identical(
      triage_options(core::WindowStrategy::kAdaptive),
      periodic_chunks(40, 10.0));
  EXPECT_GE(stats.skipped, 30u);
}

TEST(SessionTriage, DriftRetriggersFullAnalysis) {
  eng::StreamingOptions o = triage_options(core::WindowStrategy::kFixedLength);
  eng::StreamingSession session(o);

  auto steady = periodic_chunks(40, 10.0);
  for (const auto& chunk : steady) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    session.predict();
  }
  const auto before = session.triage_stats();
  ASSERT_GT(before.skipped, 0u);
  ASSERT_TRUE(session.triage_estimate().valid());

  // The cadence drifts 10 s -> 25 s: the bank must diverge from its
  // reference and force full analyses again.
  for (const auto& chunk : periodic_chunks(30, 25.0, 4, 400.0)) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    session.predict();
  }
  const auto after = session.triage_stats();
  EXPECT_GT(after.drift_retriggers + after.confidence_retriggers,
            before.drift_retriggers + before.confidence_retriggers);
  EXPECT_GT(after.full_analyses, before.full_analyses);
  // Once the new cadence settles the bank re-locks and skipping resumes.
  EXPECT_GT(after.skipped, before.skipped);
}

TEST(SessionTriage, PostDriftFullRunsStayIdentical) {
  auto chunks = periodic_chunks(30, 10.0);
  for (const auto& c : periodic_chunks(30, 25.0, 4, 300.0)) {
    chunks.push_back(c);
  }
  // kFixedLength windows are state-independent, so even across the drift
  // every full run must match the always-analyse path bit for bit.
  const auto stats = expect_full_runs_identical(
      triage_options(core::WindowStrategy::kFixedLength), chunks);
  EXPECT_GT(stats.skipped, 0u);
  EXPECT_GT(stats.drift_retriggers + stats.confidence_retriggers, 0u);
}

TEST(SessionTriage, MaxSkippedForcesCadence) {
  eng::StreamingOptions o = triage_options(core::WindowStrategy::kFixedLength);
  o.triage.max_skipped = 5;
  eng::StreamingSession session(o);
  for (const auto& chunk : periodic_chunks(60, 10.0)) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    session.predict();
  }
  const auto& stats = session.triage_stats();
  EXPECT_GT(stats.cadence_retriggers, 3u);
  // At most 5 consecutive skips: full analyses >= flushes / 6.
  EXPECT_GE(stats.full_analyses, 10u);
}

TEST(SessionTriage, SkippedPredictionsCarryLastFullValues) {
  eng::StreamingOptions o = triage_options(core::WindowStrategy::kFixedLength);
  eng::StreamingSession session(o);
  core::Prediction last_full;
  bool saw_skip = false;
  int flush = 0;
  for (const auto& chunk : periodic_chunks(50, 10.0)) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    const auto p = session.predict();
    if (p.from_triage) {
      saw_skip = true;
      ASSERT_TRUE(last_full.found()) << "skip before any full run";
      EXPECT_EQ(*p.frequency, *last_full.frequency) << "flush " << flush;
      EXPECT_EQ(p.confidence, last_full.confidence) << "flush " << flush;
      EXPECT_EQ(p.window_start, last_full.window_start) << "flush " << flush;
      EXPECT_EQ(p.at_time, session.end_time()) << "flush " << flush;
    } else {
      last_full = p;
    }
    ++flush;
  }
  EXPECT_TRUE(saw_skip);
  // History records every flush, skipped or not.
  EXPECT_EQ(session.history().size(), 50u);
}

TEST(SessionTriage, WarmupBlocksEarlySkips) {
  eng::StreamingOptions o = triage_options(core::WindowStrategy::kFixedLength);
  o.triage.warmup_analyses = 8;
  eng::StreamingSession session(o);
  auto chunks = periodic_chunks(8, 10.0);
  for (const auto& chunk : chunks) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
    const auto p = session.predict();
    EXPECT_FALSE(p.from_triage);
  }
  EXPECT_EQ(session.triage_stats().full_analyses, 8u);
  EXPECT_EQ(session.triage_stats().skipped, 0u);
}

TEST(SessionTriage, ComposesWithCompaction) {
  // The acceptance-criteria configuration: O(window) memory and the
  // cheap tier at once, on a long steady stream.
  eng::StreamingOptions o = triage_options(core::WindowStrategy::kFixedLength);
  o.compaction.enabled = true;
  o.compaction.max_history = 64;
  eng::StreamingSession session(o);
  const int kFlushes = 400;
  std::size_t mid_bytes = 0;
  for (int i = 0; i < kFlushes; ++i) {
    const auto chunk = phase(i * 10.0, 2.0, 4);
    session.ingest(std::span<const tr::IoRequest>(chunk));
    session.predict();
    if (i == kFlushes / 2) mid_bytes = session.memory_bytes();
  }
  const auto& triage = session.triage_stats();
  EXPECT_GE(static_cast<double>(triage.skipped),
            0.9 * static_cast<double>(kFlushes));
  EXPECT_GT(session.compaction_stats().compactions, 0u);
  EXPECT_LE(session.memory_bytes(), mid_bytes + mid_bytes / 4);
  ASSERT_TRUE(session.triage_estimate().valid());
  EXPECT_NEAR(session.triage_estimate().period, 10.0, 1.5);
}
