#include "service/daemon.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "service/mailbox.hpp"
#include "service/service.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"

namespace svc = ftio::service;
namespace tr = ftio::trace;

namespace {

/// Requests of one I/O phase: `ranks` ranks writing for `burst` seconds
/// starting at `start`.
std::vector<tr::IoRequest> phase(double start, double burst, int ranks = 2,
                                 std::uint64_t bytes = 50'000'000) {
  std::vector<tr::IoRequest> reqs;
  for (int r = 0; r < ranks; ++r) {
    reqs.push_back({r, start, start + burst, bytes, tr::IoKind::kWrite});
  }
  return reqs;
}

/// Foreground daemon options sized for deterministic single-step tests.
svc::ServiceOptions foreground_options() {
  svc::ServiceOptions options;
  options.background = false;
  options.shards = 1;
  options.session.online.base.sampling_frequency = 2.0;
  options.session.online.base.with_metrics = false;
  return options;
}

}  // namespace

TEST(ServiceTest, PredictsForSingleTenant) {
  svc::ServiceOptions options = foreground_options();
  svc::IngestDaemon daemon(options);

  // Four 8-second periods of a 2-second burst; plenty for a prediction.
  for (int i = 0; i < 4; ++i) {
    const auto verdict = daemon.submit("app", phase(8.0 * i, 2.0));
    EXPECT_EQ(verdict, svc::Admission::kAccepted);
    daemon.pump();
  }

  const auto prediction = daemon.last_prediction("app");
  ASSERT_TRUE(prediction.has_value());
  EXPECT_GT(prediction->at_time, 0.0);

  const svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.accepted, 4u);
  EXPECT_EQ(total.processed_items, 4u);
  EXPECT_EQ(total.sessions_built, 1u);
  EXPECT_GE(total.analyses, 1u);
  EXPECT_EQ(total.level, svc::DegradationLevel::kFull);
}

TEST(ServiceTest, BadSessionTemplateFailsAtSessionBuild) {
  // A fixed-length template without a positive window is rejected when
  // the tenant's session is built, and counted there; the tenant is
  // quarantined after max_build_failures attempts.
  svc::ServiceOptions options = foreground_options();
  options.max_build_failures = 2;
  options.session.online.strategy = ftio::core::WindowStrategy::kFixedLength;
  options.session.online.fixed_window = 0.0;
  svc::IngestDaemon daemon(options);
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(daemon.submit("bad", phase(8.0 * i, 2.0)),
              svc::Admission::kAccepted);
    daemon.pump();
  }
  const svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.session_build_failures, 2u);
  EXPECT_EQ(total.sessions_built, 0u);
  EXPECT_TRUE(daemon.poisoned("bad"));
}

TEST(ServiceTest, EmptyTenantNameIsRejectedWithInvalidArgument) {
  svc::IngestDaemon daemon(foreground_options());
  EXPECT_THROW(static_cast<void>(daemon.submit("", phase(0.0, 1.0))),
               ftio::util::InvalidArgument);
  EXPECT_FALSE(daemon.last_prediction("").has_value());
}

TEST(ServiceTest, QueueNeverExceedsItsBound) {
  svc::ServiceOptions options = foreground_options();
  options.mailbox_capacity = 4;
  svc::IngestDaemon daemon(options);

  // Distinct tenants cannot coalesce, so pushes 5.. must be rejected.
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 10; ++i) {
    const auto verdict =
        daemon.submit("tenant-" + std::to_string(i), phase(0.0, 1.0));
    if (verdict == svc::Admission::kAccepted) {
      ++accepted;
    } else {
      EXPECT_EQ(verdict, svc::Admission::kRejectedQueueFull);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(rejected, 6u);

  svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.queue_depth, 4u);
  EXPECT_LE(total.queue_max_depth, total.queue_capacity);
  EXPECT_EQ(total.rejected_queue_full, 6u);

  daemon.drain();
  total = daemon.stats().total();
  EXPECT_EQ(total.processed_items, accepted);
  EXPECT_EQ(total.queue_depth, 0u);
}

TEST(ServiceTest, SameTenantCoalescesUnderPressureAndPreservesRequests) {
  svc::ServiceOptions options = foreground_options();
  options.mailbox_capacity = 8;
  options.coalesce_depth = 2;  // coalesce from depth 2 onward
  svc::IngestDaemon daemon(options);

  std::size_t coalesced = 0;
  for (int i = 0; i < 6; ++i) {
    const auto verdict = daemon.submit("hot", phase(8.0 * i, 2.0));
    if (verdict == svc::Admission::kCoalesced) ++coalesced;
  }
  EXPECT_GE(coalesced, 4u);  // items 0 and 1 occupy the two free slots

  daemon.drain();
  const svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.coalesced, coalesced);
  // Every request of every flush survived the merges: 6 flushes x 2
  // ranks each.
  EXPECT_EQ(total.processed_requests, 12u);
  EXPECT_LE(total.queue_max_depth, total.queue_capacity);
}

TEST(ServiceTest, LadderStepsDownMonotonicallyUnderOverload) {
  svc::ServiceOptions options = foreground_options();
  options.mailbox_capacity = 8;
  options.drain_batch = 1;
  options.ladder.high_watermark = 0.75;  // step down at backlog >= 6
  options.ladder.low_watermark = 0.25;   // calm at backlog <= 2
  options.ladder.recovery_cycles = 2;
  svc::IngestDaemon daemon(options);

  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(daemon.submit("t" + std::to_string(i), phase(0.0, 1.0)),
              svc::Admission::kAccepted);
  }

  // Backlogs seen by the first two cycles: 8, 7 — both at or above the
  // high watermark, so the ladder walks every rung down in order.
  const svc::DegradationLevel expected[] = {
      svc::DegradationLevel::kTriageOnly, svc::DegradationLevel::kIngestOnly};
  for (const svc::DegradationLevel level : expected) {
    ASSERT_EQ(daemon.pump(), 1u);
    EXPECT_EQ(daemon.stats().total().level, level);
  }
  // Saturated: a third overloaded cycle (backlog 6) cannot step below the
  // last rung.
  ASSERT_EQ(daemon.pump(), 1u);
  EXPECT_EQ(daemon.stats().total().level, svc::DegradationLevel::kIngestOnly);

  svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.ladder_step_downs, 2u);
  EXPECT_GE(total.dropped_ingest_only, 1u);
}

TEST(ServiceTest, LadderRecoversHystereticallyWhenCalm) {
  svc::ServiceOptions options = foreground_options();
  options.mailbox_capacity = 8;
  options.drain_batch = 1;
  options.ladder.recovery_cycles = 3;
  svc::IngestDaemon daemon(options);

  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(daemon.submit("t" + std::to_string(i), phase(0.0, 1.0)),
              svc::Admission::kAccepted);
  }
  // Cycles 1-2 see backlogs 8, 7: bottom of the ladder. Cycles 3-8
  // drain the rest; only the last two (backlogs 2, 1) are calm — not
  // enough for recovery_cycles = 3, so the level must still hold.
  for (int i = 0; i < 8; ++i) daemon.pump();
  ASSERT_EQ(daemon.stats().total().level, svc::DegradationLevel::kIngestOnly);

  // The third consecutive calm cycle recovers exactly one rung.
  daemon.pump();
  EXPECT_EQ(daemon.stats().total().level, svc::DegradationLevel::kTriageOnly);

  // Three more calm cycles walk it all the way back to full quality.
  for (int i = 0; i < 3; ++i) daemon.pump();
  const svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.level, svc::DegradationLevel::kFull);
  EXPECT_EQ(total.ladder_step_ups, 2u);
}

TEST(ServiceTest, PreMaterializationBuffersSmallTenants) {
  svc::ServiceOptions options = foreground_options();
  options.materialize_after_requests = 10;
  svc::IngestDaemon daemon(options);

  // Three flushes of 2 requests each: below the threshold, no session.
  for (int i = 0; i < 3; ++i) {
    daemon.submit("tail-tenant", phase(8.0 * i, 2.0));
    daemon.pump();
  }
  svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.sessions_built, 0u);
  EXPECT_EQ(total.deferred_flushes, 3u);
  EXPECT_EQ(total.live_sessions, 0u);
  EXPECT_FALSE(daemon.last_prediction("tail-tenant").has_value());

  // Two more flushes cross 10 buffered requests: the session
  // materialises and sees every buffered request at once.
  for (int i = 3; i < 5; ++i) {
    daemon.submit("tail-tenant", phase(8.0 * i, 2.0));
    daemon.pump();
  }
  total = daemon.stats().total();
  EXPECT_EQ(total.sessions_built, 1u);
  EXPECT_EQ(total.live_sessions, 1u);
  EXPECT_TRUE(daemon.last_prediction("tail-tenant").has_value());
}

TEST(ServiceTest, IdleTenantsAreEvictedBeyondTheCap) {
  svc::ServiceOptions options = foreground_options();
  options.max_tenants_per_shard = 2;
  svc::IngestDaemon daemon(options);

  for (int i = 0; i < 5; ++i) {
    daemon.submit("tenant-" + std::to_string(i), phase(0.0, 2.0));
    daemon.pump();
  }
  // One extra cycle so the last-touched tenant is evictable state only
  // for tenants beyond the cap.
  daemon.pump();

  const svc::ShardStats total = daemon.stats().total();
  EXPECT_LE(total.tenants, 2u);
  EXPECT_LE(total.live_sessions, 2u);
  EXPECT_EQ(total.evicted_idle, 3u);
  // An evicted tenant lost its published prediction (bounded board)...
  EXPECT_FALSE(daemon.last_prediction("tenant-0").has_value());
  // ... but was never quarantined: it may come back.
  EXPECT_FALSE(daemon.poisoned("tenant-0"));
  EXPECT_EQ(daemon.submit("tenant-0", phase(10.0, 2.0)),
            svc::Admission::kAccepted);
}

TEST(ServiceTest, TokenBucketBoundsAnalysesPerTenant) {
  svc::ServiceOptions options = foreground_options();
  options.budget.analyses_per_second = 0.0;  // no refill: burst only
  options.budget.burst = 2.0;
  svc::IngestDaemon daemon(options);

  for (int i = 0; i < 5; ++i) {
    daemon.submit("metered", phase(8.0 * i, 2.0));
    daemon.pump();
  }
  const svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.analyses + total.empty_window_analyses, 2u);
  EXPECT_EQ(total.budget_skips, 3u);
  // Ingest kept flowing: the budget meters analysis, not availability.
  EXPECT_EQ(total.processed_items, 5u);
}

TEST(ServiceTest, ExpiredWorkIsIngestedButNotAnalysed) {
  svc::ServiceOptions options = foreground_options();
  options.work_deadline_seconds = 1e-9;  // everything is late
  svc::IngestDaemon daemon(options);

  for (int i = 0; i < 3; ++i) {
    daemon.submit("late", phase(8.0 * i, 2.0));
    daemon.pump();
  }
  const svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.deadline_expired, 3u);
  EXPECT_EQ(total.analyses, 0u);
  // The data still reached the session (sessions_built proves ingest).
  EXPECT_EQ(total.sessions_built, 1u);
  EXPECT_EQ(total.processed_requests, 6u);
}

TEST(ServiceTest, MalformedRecordsAreContainedPerRecord) {
  svc::IngestDaemon daemon(foreground_options());

  // Two good records around one garbage line: the flush is admitted and
  // the bad line costs itself only.
  const std::string mixed =
      R"({"type":"io","kind":"write","rank":0,"start":0.0,"end":2.0,"bytes":64})"
      "\nthis is not json\n"
      R"({"type":"io","kind":"write","rank":1,"start":0.0,"end":2.0,"bytes":64})"
      "\n";
  EXPECT_EQ(daemon.submit_jsonl("app", mixed), svc::Admission::kAccepted);

  // All-garbage payloads are rejected at admission, not queued.
  EXPECT_EQ(daemon.submit_jsonl("app", "garbage\nmore garbage\n"),
            svc::Admission::kRejectedMalformed);
  EXPECT_EQ(daemon.submit_msgpack(
                "app", std::vector<std::uint8_t>{0xc1, 0xc1, 0xc1}),
            svc::Admission::kRejectedMalformed);

  daemon.drain();
  const svc::DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.malformed_records, 4u);
  EXPECT_EQ(stats.rejected_malformed, 2u);
  EXPECT_EQ(stats.total().processed_requests, 2u);
}

TEST(ServiceTest, StoppedDaemonRejectsNewWorkButDrainsAdmitted) {
  svc::IngestDaemon daemon(foreground_options());
  ASSERT_EQ(daemon.submit("app", phase(0.0, 2.0)), svc::Admission::kAccepted);
  daemon.stop();

  EXPECT_EQ(daemon.submit("app", phase(8.0, 2.0)),
            svc::Admission::kRejectedStopped);
  const svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.processed_items, 1u);  // admitted work was not dropped
  EXPECT_EQ(total.rejected_stopped, 1u);
}

TEST(ServiceTest, AnalysesCoalesceAcrossQueuedFlushesOfOneTenant) {
  svc::ServiceOptions options = foreground_options();
  options.mailbox_capacity = 16;
  options.coalesce_depth = 16;  // disable item merging: queue raw items
  options.drain_batch = 16;
  svc::IngestDaemon daemon(options);

  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(daemon.submit("bursty", phase(8.0 * i, 2.0)),
              svc::Admission::kAccepted);
  }
  daemon.pump();  // one cycle sees all six items

  const svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.processed_items, 6u);
  EXPECT_EQ(total.analyses + total.empty_window_analyses, 1u);
  EXPECT_EQ(total.coalesced_analyses, 5u);
}

TEST(ServiceTest, BackgroundDaemonDrainsConcurrentProducers) {
  svc::ServiceOptions options;
  options.background = true;
  options.shards = 2;
  options.mailbox_capacity = 64;
  options.session.online.base.sampling_frequency = 2.0;
  options.session.online.base.with_metrics = false;
  svc::IngestDaemon daemon(options);

  constexpr int kProducers = 4;
  constexpr int kFlushes = 25;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&daemon, p] {
      for (int i = 0; i < kFlushes; ++i) {
        const std::string tenant =
            "p" + std::to_string(p) + "-t" + std::to_string(i % 3);
        static_cast<void>(daemon.submit(tenant, phase(8.0 * i, 2.0)));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  daemon.drain();
  daemon.stop();

  const svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.submitted,
            static_cast<std::size_t>(kProducers * kFlushes));
  // Conservation: every accepted item was processed exactly once, and
  // nothing else was.
  EXPECT_EQ(total.processed_items, total.accepted);
  EXPECT_LE(total.queue_max_depth, 64u);
  EXPECT_EQ(total.queue_depth, 0u);
}

TEST(ServiceTest, LatencyHistogramPercentilesAndMerge) {
  svc::LatencyHistogram histogram;
  EXPECT_EQ(histogram.percentile(0.5), 0.0);  // empty

  for (int i = 0; i < 90; ++i) histogram.record_seconds(10e-6);  // ~10 us
  for (int i = 0; i < 10; ++i) histogram.record_seconds(5e-3);   // ~5 ms
  EXPECT_EQ(histogram.total, 100u);
  // p50 lands in the 10 us bucket: upper edge 16 us.
  EXPECT_DOUBLE_EQ(histogram.percentile(0.5), 16e-6);
  // p99 lands in the 5 ms bucket: upper edge 8192 us.
  EXPECT_DOUBLE_EQ(histogram.percentile(0.99), 8192e-6);

  svc::LatencyHistogram other;
  other.record_seconds(2.0);  // seconds-scale outlier
  histogram.merge(other);
  EXPECT_EQ(histogram.total, 101u);
  EXPECT_GT(histogram.percentile(1.0), 1.0);
}

TEST(ServiceTest, AdmissionAndLevelNamesAreStable) {
  EXPECT_STREQ(svc::admission_name(svc::Admission::kAccepted), "accepted");
  EXPECT_STREQ(svc::admission_name(svc::Admission::kRejectedQueueFull),
               "rejected-queue-full");
  EXPECT_STREQ(svc::degradation_level_name(svc::DegradationLevel::kFull),
               "full");
  EXPECT_STREQ(
      svc::degradation_level_name(svc::DegradationLevel::kIngestOnly),
      "ingest-only");
  EXPECT_TRUE(svc::admitted(svc::Admission::kCoalesced));
  EXPECT_FALSE(svc::admitted(svc::Admission::kRejectedPoisoned));
}
