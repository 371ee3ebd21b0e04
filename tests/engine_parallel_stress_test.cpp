// Multi-threaded stress over what threads share: core::detect under
// util::parallel_for with threads > 1 must match the serial loop bit for
// bit, and independent single-owner StreamingSessions running at once
// must stay deterministic. Both paths meet only in the global FFT plan
// cache and per-thread scratch; this is the workload the TSan CI leg
// exists to police.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <thread>
#include <vector>

#include "core/ftio.hpp"
#include "engine/streaming.hpp"
#include "trace/model.hpp"
#include "util/parallel.hpp"

namespace core = ftio::core;
namespace eng = ftio::engine;
namespace tr = ftio::trace;

namespace {

/// A periodic burst trace: one write phase every `period` seconds.
tr::Trace periodic_trace(int phases, double period, double burst,
                         int ranks) {
  tr::Trace trace;
  trace.app = "stress";
  trace.rank_count = ranks;
  for (int p = 0; p < phases; ++p) {
    const double start = static_cast<double>(p) * period;
    for (int r = 0; r < ranks; ++r) {
      trace.requests.push_back(
          {r, start, start + burst, 10'000'000, tr::IoKind::kWrite});
    }
  }
  return trace;
}

core::FtioOptions base_options() {
  core::FtioOptions options;
  options.sampling_frequency = 4.0;
  options.with_metrics = false;
  return options;
}

TEST(EngineParallelStress, ThreadedDetectMatchesSerial) {
  // 24 traces with three distinct lengths, so the fan-out exercises both
  // same-length and mixed windows on the shared plan cache.
  std::vector<tr::Trace> traces;
  traces.reserve(24);
  for (int i = 0; i < 24; ++i) {
    traces.push_back(
        periodic_trace(12 + 4 * (i % 3), 8.0 + static_cast<double>(i % 5),
                       0.75, 2 + i % 3));
  }

  const auto base = base_options();
  std::vector<core::FtioResult> a(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    a[i] = core::detect(traces[i], base);
  }
  std::vector<core::FtioResult> b(traces.size());
  ftio::util::parallel_for(
      traces.size(),
      [&](std::size_t i) { b[i] = core::detect(traces[i], base); }, 4);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].periodic(), b[i].periodic()) << "trace " << i;
    if (a[i].periodic()) {
      EXPECT_EQ(a[i].frequency(), b[i].frequency()) << "trace " << i;
    }
    EXPECT_EQ(a[i].refined_confidence, b[i].refined_confidence)
        << "trace " << i;
    EXPECT_EQ(a[i].sample_count, b[i].sample_count) << "trace " << i;
  }
}

TEST(EngineParallelStress, ConcurrentIndependentSessionsStayDeterministic) {
  // N threads each run their own session over the same chunk sequence;
  // every thread must produce the identical prediction history (the
  // shared state they exercise together is the global plan cache).
  const tr::Trace trace = periodic_trace(48, 7.0, 0.6, 3);
  constexpr std::size_t kChunk = 24;

  auto run_session = [&] {
    eng::StreamingOptions options;
    options.online.base = base_options();
    options.online.strategy = core::WindowStrategy::kAdaptive;
    eng::StreamingSession session(options);
    std::vector<core::Prediction> history;
    for (std::size_t i = 0; i < trace.requests.size(); i += kChunk) {
      const std::size_t n = std::min(kChunk, trace.requests.size() - i);
      session.ingest(std::span<const tr::IoRequest>(
          trace.requests.data() + i, n));
      history.push_back(session.predict());
    }
    return history;
  };

  constexpr int kThreads = 4;
  std::vector<std::vector<core::Prediction>> histories(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] { histories[t] = run_session(); });
  }
  for (auto& w : workers) w.join();

  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(histories[t].size(), histories[0].size()) << "thread " << t;
    for (std::size_t i = 0; i < histories[0].size(); ++i) {
      const auto& a = histories[0][i];
      const auto& b = histories[t][i];
      ASSERT_EQ(a.frequency.has_value(), b.frequency.has_value())
          << "thread " << t << " flush " << i;
      if (a.frequency) {
        EXPECT_EQ(*a.frequency, *b.frequency)
            << "thread " << t << " flush " << i;
      }
      EXPECT_EQ(a.confidence, b.confidence)
          << "thread " << t << " flush " << i;
      EXPECT_EQ(a.window_start, b.window_start)
          << "thread " << t << " flush " << i;
    }
  }
}

}  // namespace
