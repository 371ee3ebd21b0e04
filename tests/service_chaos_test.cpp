#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "service/daemon.hpp"
#include "service/service.hpp"
#include "trace/formats.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"

namespace svc = ftio::service;
namespace tr = ftio::trace;
namespace fp = ftio::util::failpoints;

namespace {

std::vector<tr::IoRequest> phase(double start, double burst, int ranks = 2,
                                 std::uint64_t bytes = 50'000'000) {
  std::vector<tr::IoRequest> reqs;
  for (int r = 0; r < ranks; ++r) {
    reqs.push_back({r, start, start + burst, bytes, tr::IoKind::kWrite});
  }
  return reqs;
}

svc::ServiceOptions foreground_options() {
  svc::ServiceOptions options;
  options.background = false;
  options.shards = 1;
  options.session.online.base.sampling_frequency = 2.0;
  return options;
}

/// Every test arms failpoints; none may leak into the next.
class ServiceChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::disarm_all(); }
  void TearDown() override { fp::disarm_all(); }
};

}  // namespace

TEST_F(ServiceChaosTest, FailpointFiringSequenceIsSeedDeterministic) {
  // Registry semantics need no compiled-in call sites: should_fire is
  // the macro's backend and is testable directly.
  fp::arm("test.point", 0.5, 1234);
  std::vector<bool> first;
  for (int i = 0; i < 200; ++i) first.push_back(fp::should_fire("test.point"));
  EXPECT_EQ(fp::evaluation_count("test.point"), 200u);
  const std::size_t fires = fp::fire_count("test.point");
  EXPECT_GT(fires, 50u);
  EXPECT_LT(fires, 150u);

  // Re-arming with the same seed replays the exact sequence.
  fp::arm("test.point", 0.5, 1234);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(fp::should_fire("test.point"), first[static_cast<std::size_t>(i)])
        << "draw " << i;
  }

  // A different seed diverges; p = 0 never fires; p = 1 always fires.
  fp::arm("test.point", 0.5, 99);
  std::vector<bool> reseeded;
  for (int i = 0; i < 200; ++i) {
    reseeded.push_back(fp::should_fire("test.point"));
  }
  EXPECT_NE(first, reseeded);
  fp::arm("test.point", 0.0, 1);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(fp::should_fire("test.point"));
  fp::arm("test.point", 1.0, 1);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(fp::should_fire("test.point"));

  fp::disarm("test.point");
  EXPECT_FALSE(fp::should_fire("test.point"));
  EXPECT_EQ(fp::fire_count("test.point"), 0u);
}

TEST_F(ServiceChaosTest, ParseGarbageFailpointDrivesSkipBadCounters) {
  if (!fp::compiled_in()) {
    GTEST_SKIP() << "library built without FTIO_ENABLE_FAILPOINTS";
  }
  const std::string good =
      R"({"type":"io","kind":"write","rank":0,"start":0.0,"end":1.0,"bytes":8})"
      "\n";
  fp::arm("trace.parse_garbage", 1.0, 7);
  tr::ParseStats stats;
  const tr::Trace trace =
      tr::from_jsonl(good + good, tr::ParsePolicy::kSkipBad, &stats);
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_TRUE(trace.requests.empty());
  EXPECT_EQ(fp::fire_count("trace.parse_garbage"), 2u);

  // kStrict propagates the injected ParseError.
  EXPECT_THROW(static_cast<void>(tr::from_jsonl(good)),
               ftio::util::ParseError);
}

TEST_F(ServiceChaosTest, ThrowingSessionIsQuarantinedWithoutCollateral) {
  if (!fp::compiled_in()) {
    GTEST_SKIP() << "library built without FTIO_ENABLE_FAILPOINTS";
  }
  svc::IngestDaemon daemon(foreground_options());

  // Establish the victim's session, then make its next ingest throw.
  ASSERT_EQ(daemon.submit("victim", phase(0.0, 2.0)),
            svc::Admission::kAccepted);
  daemon.pump();
  fp::arm("service.session_throw", 1.0, 11);
  ASSERT_EQ(daemon.submit("victim", phase(8.0, 2.0)),
            svc::Admission::kAccepted);
  daemon.pump();
  fp::disarm("service.session_throw");

  EXPECT_TRUE(daemon.poisoned("victim"));
  EXPECT_EQ(daemon.submit("victim", phase(16.0, 2.0)),
            svc::Admission::kRejectedPoisoned);
  EXPECT_FALSE(daemon.last_prediction("victim").has_value());

  // A healthy tenant on the same shard is completely unaffected.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(daemon.submit("bystander", phase(8.0 * i, 2.0)),
              svc::Admission::kAccepted);
    daemon.pump();
  }
  EXPECT_FALSE(daemon.poisoned("bystander"));
  EXPECT_TRUE(daemon.last_prediction("bystander").has_value());

  const svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.poisoned_sessions, 1u);
  EXPECT_EQ(total.rejected_poisoned, 1u);
}

// Regression: a tenant queued for analysis by an early flush of a drain
// cycle, then poisoned by a *later* flush of the same cycle, left a
// session-less tenant in the due set (found by load_ingest --chaos).
// The fire pattern needed is (no-fire, fire) across the two ingests of
// one cycle; evaluation_count == 2 with fire_count == 1 identifies it
// exactly (a first-draw fire poisons immediately and stops evaluating,
// a no-fire second draw proceeds to a third evaluation in analyze).
TEST_F(ServiceChaosTest, SameCyclePoisonAfterDueQueueingIsQuarantineOnly) {
  if (!fp::compiled_in()) {
    GTEST_SKIP() << "library built without FTIO_ENABLE_FAILPOINTS";
  }
  bool exercised = false;
  for (std::uint64_t seed = 0; seed < 64 && !exercised; ++seed) {
    svc::ServiceOptions options = foreground_options();
    options.drain_batch = 8;
    svc::IngestDaemon daemon(options);
    ASSERT_EQ(daemon.submit("t", phase(0.0, 2.0)), svc::Admission::kAccepted);
    daemon.pump();  // builds the session, unarmed

    fp::arm("service.session_throw", 0.5, seed);
    ASSERT_EQ(daemon.submit("t", phase(10.0, 2.0)), svc::Admission::kAccepted);
    ASSERT_EQ(daemon.submit("t", phase(20.0, 2.0)), svc::Admission::kAccepted);
    daemon.pump();  // both flushes drain in one cycle
    const bool pattern =
        fp::evaluation_count("service.session_throw") == 2 &&
        fp::fire_count("service.session_throw") == 1;
    fp::disarm("service.session_throw");
    if (pattern) {
      exercised = true;
      EXPECT_TRUE(daemon.poisoned("t"));
      EXPECT_EQ(daemon.stats().total().poisoned_sessions, 1u);
    }
    daemon.stop();
  }
  EXPECT_TRUE(exercised) << "no seed produced the fire-on-second pattern";
}

TEST_F(ServiceChaosTest, RepeatedBuildFailuresQuarantineTheTenant) {
  if (!fp::compiled_in()) {
    GTEST_SKIP() << "library built without FTIO_ENABLE_FAILPOINTS";
  }
  svc::ServiceOptions options = foreground_options();
  options.max_build_failures = 3;
  svc::IngestDaemon daemon(options);

  fp::arm("service.alloc", 1.0, 5);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(daemon.submit("oom", phase(8.0 * i, 2.0)),
              svc::Admission::kAccepted);
    daemon.pump();
  }
  fp::disarm("service.alloc");

  const svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.session_build_failures, 3u);
  EXPECT_EQ(total.poisoned_sessions, 1u);
  EXPECT_EQ(total.sessions_built, 0u);
  EXPECT_TRUE(daemon.poisoned("oom"));
}

TEST_F(ServiceChaosTest, ShardCrashRestartsWithoutLosingTheDaemon) {
  if (!fp::compiled_in()) {
    GTEST_SKIP() << "library built without FTIO_ENABLE_FAILPOINTS";
  }
  svc::IngestDaemon daemon(foreground_options());

  ASSERT_EQ(daemon.submit("app", phase(0.0, 2.0)), svc::Admission::kAccepted);
  daemon.pump();
  ASSERT_EQ(daemon.stats().total().live_sessions, 1u);

  fp::arm("service.shard_crash", 1.0, 3);
  ASSERT_EQ(daemon.submit("app", phase(8.0, 2.0)), svc::Admission::kAccepted);
  daemon.pump();  // the drain cycle throws; crash-only restart
  fp::disarm("service.shard_crash");

  svc::ShardStats total = daemon.stats().total();
  EXPECT_GE(total.shard_restarts, 1u);
  EXPECT_EQ(total.live_sessions, 0u);  // resident state was discarded

  // The shard keeps serving: the tenant's session rebuilds from new
  // flushes (the crashed batch itself is lost, by design).
  for (int i = 2; i < 6; ++i) {
    ASSERT_EQ(daemon.submit("app", phase(8.0 * i, 2.0)),
              svc::Admission::kAccepted);
    daemon.pump();
  }
  total = daemon.stats().total();
  EXPECT_EQ(total.live_sessions, 1u);
  EXPECT_FALSE(daemon.poisoned("app"));
  EXPECT_TRUE(daemon.last_prediction("app").has_value());
}

TEST_F(ServiceChaosTest, QueueOverflowFailpointExercisesRejectionPath) {
  if (!fp::compiled_in()) {
    GTEST_SKIP() << "library built without FTIO_ENABLE_FAILPOINTS";
  }
  svc::IngestDaemon daemon(foreground_options());
  fp::arm("service.queue_overflow", 1.0, 9);
  EXPECT_EQ(daemon.submit("app", phase(0.0, 2.0)),
            svc::Admission::kRejectedQueueFull);
  fp::disarm("service.queue_overflow");
  EXPECT_EQ(daemon.submit("app", phase(0.0, 2.0)), svc::Admission::kAccepted);

  const svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.rejected_queue_full, 1u);
  EXPECT_EQ(total.accepted, 1u);
}

TEST_F(ServiceChaosTest, AllFailpointsArmedForegroundStorm) {
  if (!fp::compiled_in()) {
    GTEST_SKIP() << "library built without FTIO_ENABLE_FAILPOINTS";
  }
  svc::ServiceOptions options = foreground_options();
  options.shards = 2;
  options.mailbox_capacity = 8;
  options.drain_batch = 4;
  options.max_tenants_per_shard = 4;
  svc::IngestDaemon daemon(options);

  fp::arm("service.alloc", 0.05, 101);
  fp::arm("service.session_throw", 0.05, 102);
  fp::arm("service.slow_shard", 0.02, 103);
  fp::arm("service.shard_crash", 0.02, 104);
  fp::arm("service.queue_overflow", 0.05, 105);
  fp::arm("trace.parse_garbage", 0.05, 106);

  const std::string good_line =
      R"({"type":"io","kind":"write","rank":0,"start":0.0,"end":1.0,"bytes":8})"
      "\n";
  for (int i = 0; i < 120; ++i) {
    const std::string tenant = "t" + std::to_string(i % 9);
    if (i % 3 == 0) {
      static_cast<void>(daemon.submit_jsonl(tenant, good_line + good_line));
    } else {
      static_cast<void>(daemon.submit(tenant, phase(8.0 * (i / 9), 2.0)));
    }
    if (i % 2 == 0) daemon.pump();
  }
  daemon.stop();

  // Whatever the injected chaos did, the structural invariants hold:
  // the queue bound was never pierced and no item was processed twice.
  const svc::ShardStats total = daemon.stats().total();
  for (const svc::ShardStats& shard : daemon.stats().shards) {
    EXPECT_LE(shard.queue_max_depth, shard.queue_capacity);
  }
  EXPECT_LE(total.processed_items, total.accepted);
  EXPECT_GT(total.processed_items, 0u);
  if (fp::fire_count("service.shard_crash") == 0) {
    EXPECT_EQ(total.processed_items, total.accepted);
  }
}

TEST_F(ServiceChaosTest, AllFailpointsArmedBackgroundStorm) {
  if (!fp::compiled_in()) {
    GTEST_SKIP() << "library built without FTIO_ENABLE_FAILPOINTS";
  }
  fp::arm("service.alloc", 0.05, 201);
  fp::arm("service.session_throw", 0.05, 202);
  fp::arm("service.slow_shard", 0.02, 203);
  fp::arm("service.shard_crash", 0.02, 204);
  fp::arm("service.queue_overflow", 0.05, 205);
  fp::arm("trace.parse_garbage", 0.05, 206);

  svc::ServiceOptions options;
  options.background = true;
  options.shards = 2;
  options.mailbox_capacity = 16;
  options.max_tenants_per_shard = 8;
  options.session.online.base.sampling_frequency = 2.0;
  svc::IngestDaemon daemon(options);

  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&daemon, p] {
      for (int i = 0; i < 40; ++i) {
        const std::string tenant =
            "p" + std::to_string(p) + "t" + std::to_string(i % 4);
        static_cast<void>(daemon.submit(tenant, phase(8.0 * i, 2.0)));
        static_cast<void>(daemon.last_prediction(tenant));
        static_cast<void>(daemon.stats());
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  daemon.drain();
  daemon.stop();

  const svc::ShardStats total = daemon.stats().total();
  for (const svc::ShardStats& shard : daemon.stats().shards) {
    EXPECT_LE(shard.queue_max_depth, shard.queue_capacity);
  }
  EXPECT_LE(total.processed_items, total.accepted);
  EXPECT_EQ(total.submitted, 120u);
}
