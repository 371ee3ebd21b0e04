// Multi-threaded stress over the engine fan-out and the streaming
// session's internal locking: analyze_many with threads > 1 must match
// the serial pass bit for bit, one StreamingSession must survive
// concurrent ingest/predict/accessor traffic from several threads, and
// independent concurrent sessions must stay deterministic. This is the
// workload the TSan CI leg (and the clang thread-safety annotations)
// exist to police.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <thread>
#include <vector>

#include "core/ftio.hpp"
#include "engine/engine.hpp"
#include "engine/streaming.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"

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

TEST(EngineParallelStress, ThreadedAnalyzeManyMatchesSerial) {
  // 24 views with three distinct lengths, so the fan-out exercises both
  // the batched same-length path and mixed windows.
  std::vector<tr::Trace> traces;
  traces.reserve(24);
  for (int i = 0; i < 24; ++i) {
    traces.push_back(
        periodic_trace(12 + 4 * (i % 3), 8.0 + static_cast<double>(i % 5),
                       0.75, 2 + i % 3));
  }
  std::vector<eng::TraceView> views;
  views.reserve(traces.size());
  for (const auto& trace : traces) views.push_back(eng::TraceView::of(trace));

  eng::EngineOptions serial;
  serial.threads = 1;
  eng::EngineOptions threaded;
  threaded.threads = 4;
  const auto base = base_options();
  const auto a = eng::analyze_many(views, base, serial);
  const auto b = eng::analyze_many(views, base, threaded);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].periodic(), b[i].periodic()) << "view " << i;
    if (a[i].periodic()) {
      EXPECT_EQ(a[i].frequency(), b[i].frequency()) << "view " << i;
    }
    EXPECT_EQ(a[i].refined_confidence, b[i].refined_confidence)
        << "view " << i;
    EXPECT_EQ(a[i].sample_count, b[i].sample_count) << "view " << i;
  }
}

TEST(EngineParallelStress, ConcurrentFlushesOnOneSession) {
  // Several producers feed disjoint slices of one trace into a single
  // session while every thread also calls predict() and the by-value
  // accessors. Interleaving makes the prediction *sequence* schedule-
  // dependent by design; what must hold is the absence of races (TSan),
  // lost updates in the running aggregates, and deadlocks.
  const tr::Trace trace = periodic_trace(64, 6.0, 0.5, 4);

  eng::StreamingOptions options;
  options.online.base = base_options();
  options.online.strategy = core::WindowStrategy::kGrowing;
  eng::StreamingSession session(options);

  constexpr int kThreads = 4;
  const std::size_t per_thread = trace.requests.size() / kThreads;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const std::size_t begin = static_cast<std::size_t>(t) * per_thread;
      const std::size_t end = t + 1 == kThreads ? trace.requests.size()
                                                : begin + per_thread;
      constexpr std::size_t kChunk = 16;
      for (std::size_t i = begin; i < end; i += kChunk) {
        const std::size_t n = std::min(kChunk, end - i);
        session.ingest(std::span<const tr::IoRequest>(
            trace.requests.data() + i, n));
        try {
          static_cast<void>(session.predict());
        } catch (const ftio::util::InvalidArgument&) {
          // A racing thread may observe a window shorter than one
          // sample before more data lands; that is the documented
          // rejection, not a failure.
        }
        static_cast<void>(session.request_count());
        static_cast<void>(session.memory_bytes());
        static_cast<void>(session.triage_stats());
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(session.request_count(), trace.requests.size());
  EXPECT_EQ(session.begin_time(), trace.begin_time());
  EXPECT_EQ(session.end_time(), trace.end_time());
  EXPECT_FALSE(session.history().empty());
  static_cast<void>(session.merged_intervals());
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
