#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/online.hpp"
#include "engine/streaming.hpp"
#include "service/daemon.hpp"
#include "service/service.hpp"
#include "trace/model.hpp"
#include "util/failpoints.hpp"

namespace core = ftio::core;
namespace eng = ftio::engine;
namespace svc = ftio::service;
namespace tr = ftio::trace;
namespace fp = ftio::util::failpoints;
namespace fs = std::filesystem;

namespace {

std::vector<tr::IoRequest> phase(double start, double burst, int ranks = 2,
                                 std::uint64_t bytes = 50'000'000) {
  std::vector<tr::IoRequest> reqs;
  for (int r = 0; r < ranks; ++r) {
    reqs.push_back({r, start, start + burst, bytes, tr::IoKind::kWrite});
  }
  return reqs;
}

/// A unique empty directory per test, removed on teardown.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("ftio_durability_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Durable foreground daemon, one shard, strict fsync. Triage,
/// compaction, and adaptive windows are off so a prediction is a pure
/// function of the ingested data — the property the recovered-vs-
/// reference bit comparison below rides on (the stateful tiers'
/// round-trip identity is pinned by engine_snapshot_test).
svc::ServiceOptions durable_options(const fs::path& dir) {
  svc::ServiceOptions options;
  options.background = false;
  options.shards = 1;
  options.session.online.strategy = core::WindowStrategy::kGrowing;
  options.session.online.base.sampling_frequency = 2.0;
  options.session.online.base.with_metrics = false;
  options.session.compaction.enabled = false;
  options.session.triage.enabled = false;
  options.durability.enabled = true;
  options.durability.directory = dir.string();
  options.durability.checkpoint_interval_cycles = 1'000'000;  // never
  options.durability.checkpoint_on_stop = false;
  return options;
}

/// Pumps until idle and waits for the checkpoint writers, so the
/// counters read afterwards include every checkpoint the pumps started.
void pump_all(svc::IngestDaemon& daemon) { daemon.drain(); }

/// Submits one flush and runs exactly one drain cycle: the cycle count,
/// and with it the checkpoint cadence, is then one per flush.
void submit_and_pump_once(svc::IngestDaemon& daemon, const std::string& tenant,
                          const std::vector<tr::IoRequest>& chunk) {
  EXPECT_TRUE(svc::admitted(
      daemon.submit(tenant, std::vector<tr::IoRequest>(chunk))));
  EXPECT_EQ(daemon.pump(), 1u);
}

void expect_identical(const core::Prediction& a, const core::Prediction& b) {
  EXPECT_EQ(a.at_time, b.at_time);
  ASSERT_EQ(a.frequency.has_value(), b.frequency.has_value());
  if (a.frequency) {
    EXPECT_EQ(*a.frequency, *b.frequency);
  }
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.refined_confidence, b.refined_confidence);
  EXPECT_EQ(a.window_start, b.window_start);
  EXPECT_EQ(a.window_end, b.window_end);
  EXPECT_EQ(a.sample_count, b.sample_count);
}

/// The recovery acceptance check: after a restart, submitting one
/// sentinel flush must yield a prediction bit-identical to a fresh
/// reference session fed exactly `expected` (the flushes recovery owes)
/// plus the sentinel.
void expect_tenant_recovered(
    svc::IngestDaemon& daemon, const std::string& tenant,
    std::vector<std::vector<tr::IoRequest>> expected,
    const std::vector<tr::IoRequest>& sentinel) {
  ASSERT_TRUE(svc::admitted(
      daemon.submit(tenant, std::vector<tr::IoRequest>(sentinel))))
      << tenant;
  pump_all(daemon);
  const auto got = daemon.last_prediction(tenant);
  ASSERT_TRUE(got.has_value()) << tenant;

  eng::StreamingSession reference(daemon.options().session);
  for (const auto& chunk : expected) {
    reference.ingest(std::span<const tr::IoRequest>(chunk));
  }
  reference.ingest(std::span<const tr::IoRequest>(sentinel));
  expect_identical(reference.predict(), *got);
}

/// Submits `flushes` periodic chunks for `tenant`, pumping after each
/// (every one must be acked), and returns them.
std::vector<std::vector<tr::IoRequest>> feed(svc::IngestDaemon& daemon,
                                             const std::string& tenant,
                                             int flushes, double period,
                                             double offset = 0.0) {
  std::vector<std::vector<tr::IoRequest>> chunks;
  for (int i = 0; i < flushes; ++i) {
    chunks.push_back(phase(offset + i * period, 2.0));
    EXPECT_TRUE(svc::admitted(daemon.submit(
        tenant, std::vector<tr::IoRequest>(chunks.back()))));
    pump_all(daemon);
  }
  return chunks;
}

fs::path newest_matching(const fs::path& dir, const std::string& prefix,
                         const std::string& suffix) {
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0 &&
        (newest.empty() || entry.path() > newest)) {
      newest = entry.path();
    }
  }
  return newest;
}

bool has_checkpoint_temp(const fs::path& dir) {
  return !newest_matching(dir, "checkpoint-", ".ckpt.tmp").empty();
}

class DurabilityChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::disarm_all(); }
  void TearDown() override { fp::disarm_all(); }
};

}  // namespace

TEST_F(DurabilityChaosTest, CleanStopCheckpointsAndRestartReplaysNothing) {
  TempDir dir("clean_stop");
  auto options = durable_options(dir.path());
  options.durability.checkpoint_on_stop = true;

  auto lam = std::vector<std::vector<tr::IoRequest>>();
  auto hacc = std::vector<std::vector<tr::IoRequest>>();
  {
    svc::IngestDaemon daemon(options);
    lam = feed(daemon, "lammps", 8, 27.4);
    hacc = feed(daemon, "hacc", 6, 8.7);
    daemon.stop();
  }
  EXPECT_FALSE(
      newest_matching(dir.path() / "shard-0", "checkpoint-", ".ckpt").empty());

  svc::IngestDaemon restarted(options);
  const auto recovery = restarted.stats().total().recovery;
  EXPECT_EQ(recovery.tenants_restored, 2u);
  EXPECT_EQ(recovery.sessions_restored, 2u);
  EXPECT_EQ(recovery.records_replayed, 0u);  // checkpoint covers everything
  EXPECT_EQ(recovery.snapshots_rejected, 0u);
  expect_tenant_recovered(restarted, "lammps", lam, phase(8 * 27.4, 2.0));
  expect_tenant_recovered(restarted, "hacc", hacc, phase(6 * 8.7, 2.0));
}

TEST_F(DurabilityChaosTest, CrashWithoutCheckpointReplaysWholeJournal) {
  TempDir dir("journal_only");
  const auto options = durable_options(dir.path());

  auto chunks = std::vector<std::vector<tr::IoRequest>>();
  {
    svc::IngestDaemon daemon(options);
    chunks = feed(daemon, "lammps", 7, 27.4);
    // No stop(): the destructor path writes no checkpoint
    // (checkpoint_on_stop = false), so this is the process-kill shape —
    // recovery has nothing but the write-ahead journal.
  }
  svc::IngestDaemon restarted(options);
  const auto recovery = restarted.stats().total().recovery;
  EXPECT_EQ(recovery.tenants_restored, 0u);
  EXPECT_EQ(recovery.records_replayed, 7u);
  EXPECT_EQ(recovery.replayed_requests, 14u);
  expect_tenant_recovered(restarted, "lammps", chunks, phase(7 * 27.4, 2.0));
}

TEST_F(DurabilityChaosTest, CrashAfterMidStreamCheckpointReplaysTheTail) {
  TempDir dir("mid_checkpoint");
  auto options = durable_options(dir.path());
  options.durability.checkpoint_interval_cycles = 4;

  auto chunks = std::vector<std::vector<tr::IoRequest>>();
  std::size_t checkpoints = 0;
  {
    svc::IngestDaemon daemon(options);
    chunks = feed(daemon, "lammps", 7, 27.4);
    checkpoints = daemon.stats().total().checkpoints_written;
    EXPECT_GE(checkpoints, 1u);
  }
  svc::IngestDaemon restarted(options);
  const auto recovery = restarted.stats().total().recovery;
  EXPECT_EQ(recovery.tenants_restored, 1u);
  EXPECT_EQ(recovery.sessions_restored, 1u);
  EXPECT_GE(recovery.records_replayed, 1u);  // the post-checkpoint tail
  expect_tenant_recovered(restarted, "lammps", chunks, phase(7 * 27.4, 2.0));
}

TEST_F(DurabilityChaosTest, CorruptNewestCheckpointFallsBackToOlderOne) {
  TempDir dir("corrupt_ckpt");
  auto options = durable_options(dir.path());
  options.durability.checkpoint_interval_cycles = 3;
  options.durability.keep_checkpoints = 2;

  auto chunks = std::vector<std::vector<tr::IoRequest>>();
  {
    svc::IngestDaemon daemon(options);
    chunks = feed(daemon, "lammps", 9, 27.4);
    EXPECT_GE(daemon.stats().total().checkpoints_written, 2u);
  }
  const fs::path newest =
      newest_matching(dir.path() / "shard-0", "checkpoint-", ".ckpt");
  ASSERT_FALSE(newest.empty());
  {
    // Stomp the header: the file must be quarantined, not trusted.
    std::ofstream out(newest, std::ios::binary | std::ios::in);
    out.write("GARBAGE!", 8);
  }

  svc::IngestDaemon restarted(options);
  const auto recovery = restarted.stats().total().recovery;
  EXPECT_EQ(recovery.checkpoints_quarantined, 1u);
  EXPECT_EQ(recovery.tenants_restored, 1u);
  EXPECT_FALSE(
      newest_matching(dir.path() / "shard-0", "checkpoint-", ".corrupt")
          .empty());
  // The older checkpoint plus the journal tail still owes the full
  // stream: truncation respected the *oldest* retained floor.
  expect_tenant_recovered(restarted, "lammps", chunks, phase(9 * 27.4, 2.0));
}

TEST_F(DurabilityChaosTest, TornJournalTailIsTruncatedAndStaysTruncated) {
  TempDir dir("torn_tail");
  const auto options = durable_options(dir.path());

  auto chunks = std::vector<std::vector<tr::IoRequest>>();
  {
    svc::IngestDaemon daemon(options);
    chunks = feed(daemon, "lammps", 5, 27.4);
  }
  const fs::path segment =
      newest_matching(dir.path() / "shard-0" / "journal", "seg-", ".wal");
  ASSERT_FALSE(segment.empty());
  {
    // A crash mid-write leaves half a frame: fake one.
    std::ofstream out(segment, std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 0x13, 0x37};
    out.write(torn, sizeof(torn));
  }
  const auto torn_size = fs::file_size(segment);

  {
    svc::IngestDaemon restarted(options);
    const auto recovery = restarted.stats().total().recovery;
    EXPECT_EQ(recovery.torn_tails_truncated, 1u);
    EXPECT_EQ(recovery.records_replayed, 5u);
    expect_tenant_recovered(restarted, "lammps", chunks, phase(5 * 27.4, 2.0));
  }
  EXPECT_LT(fs::file_size(segment), torn_size);

  // Second recovery of the same directory: the tail is gone for good
  // (plus the sentinel record the previous daemon journaled).
  svc::IngestDaemon again(options);
  EXPECT_EQ(again.stats().total().recovery.torn_tails_truncated, 0u);
  EXPECT_EQ(again.stats().total().recovery.records_replayed, 6u);
}

TEST_F(DurabilityChaosTest, CorruptMidJournalRecordStopsTheScanWithoutCrash) {
  TempDir dir("corrupt_record");
  const auto options = durable_options(dir.path());
  {
    svc::IngestDaemon daemon(options);
    feed(daemon, "lammps", 6, 27.4);
  }
  const fs::path segment =
      newest_matching(dir.path() / "shard-0" / "journal", "seg-", ".wal");
  ASSERT_FALSE(segment.empty());
  {
    // Flip one payload byte of an early record: its CRC fails, the scan
    // stops trusting the segment there, and recovery carries on with
    // the prefix. Never a crash, never garbage in a session.
    std::fstream out(segment, std::ios::binary | std::ios::in | std::ios::out);
    out.seekp(static_cast<std::streamoff>(fs::file_size(segment) / 2));
    out.put('\x5a');
  }
  svc::IngestDaemon restarted(options);
  const auto recovery = restarted.stats().total().recovery;
  EXPECT_GE(recovery.records_discarded + recovery.torn_tails_truncated, 1u);
  EXPECT_LT(recovery.records_replayed, 6u);
  // Still serving: the tenant takes new flushes and predicts.
  ASSERT_TRUE(svc::admitted(
      restarted.submit("lammps", phase(6 * 27.4, 2.0))));
  pump_all(restarted);
  EXPECT_TRUE(restarted.last_prediction("lammps").has_value());
}

TEST_F(DurabilityChaosTest, OversizedFlushIsRefusedNotLost) {
  TempDir dir("oversized_flush");
  auto options = durable_options(dir.path());
  // 3000 requests encode to ~99 KB: over the cap. 100 fit easily.
  options.durability.max_record_bytes = 64u << 10;

  const auto first = phase(0.0, 2.0, 100);
  const auto large = phase(27.4, 2.0, 3000);
  const auto last = phase(2 * 27.4, 2.0, 100);
  {
    svc::IngestDaemon daemon(options);
    EXPECT_TRUE(svc::admitted(
        daemon.submit("lammps", std::vector<tr::IoRequest>(first))));
    pump_all(daemon);
    // Refused up front: acknowledging it would promise a record that
    // recovery reads as a torn tail and cuts off, with every later
    // acknowledged record of the segment behind it.
    EXPECT_EQ(daemon.submit("lammps", std::vector<tr::IoRequest>(large)),
              svc::Admission::kRejectedDurability);
    EXPECT_TRUE(svc::admitted(
        daemon.submit("lammps", std::vector<tr::IoRequest>(last))));
    pump_all(daemon);
    const auto stats = daemon.stats().total();
    EXPECT_EQ(stats.rejected_durability, 1u);
    EXPECT_EQ(stats.journal_append_failures, 1u);
  }
  svc::IngestDaemon restarted(options);
  const auto recovery = restarted.stats().total().recovery;
  EXPECT_EQ(recovery.records_replayed, 2u);
  EXPECT_EQ(recovery.torn_tails_truncated, 0u);
  EXPECT_EQ(recovery.records_discarded, 0u);
  expect_tenant_recovered(restarted, "lammps", {first, last},
                          phase(3 * 27.4, 2.0));
}

TEST_F(DurabilityChaosTest, InProcessShardCrashRecoversFromTheJournal) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints not compiled in";
  TempDir dir("shard_crash");
  const auto options = durable_options(dir.path());
  svc::IngestDaemon daemon(options);
  auto chunks = feed(daemon, "lammps", 5, 27.4);

  // The next flush is journaled and queued; the drain cycle that would
  // process it crashes. The crash-only restart must rebuild the five
  // ingested flushes AND replay the queued one's record — then skip the
  // surviving mailbox item as a duplicate.
  chunks.push_back(phase(5 * 27.4, 2.0));
  ASSERT_TRUE(svc::admitted(
      daemon.submit("lammps", std::vector<tr::IoRequest>(chunks.back()))));
  fp::arm("service.shard_crash", 1.0, 42);
  daemon.pump();  // crashes, restarts, recovers
  fp::disarm_all();
  pump_all(daemon);

  const auto stats = daemon.stats().total();
  EXPECT_EQ(stats.shard_restarts, 1u);
  EXPECT_EQ(stats.recovery.records_replayed, 6u);
  expect_tenant_recovered(daemon, "lammps", chunks, phase(6 * 27.4, 2.0));
}

TEST_F(DurabilityChaosTest, JournalWriteFailureTearsTheFrameAndRejects) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints not compiled in";
  TempDir dir("fp_journal_write");
  const auto options = durable_options(dir.path());

  auto chunks = std::vector<std::vector<tr::IoRequest>>();
  {
    svc::IngestDaemon daemon(options);
    chunks = feed(daemon, "lammps", 3, 27.4);
    fp::arm("durability.journal_write", 1.0, 7);
    EXPECT_EQ(daemon.submit("lammps", phase(3 * 27.4, 2.0)),
              svc::Admission::kRejectedDurability);
    fp::disarm_all();
    const auto more = feed(daemon, "lammps", 2, 27.4, 4 * 27.4);
    chunks.insert(chunks.end(), more.begin(), more.end());
    EXPECT_GE(daemon.stats().total().journal_append_failures, 1u);
    EXPECT_GE(daemon.stats().total().rejected_durability, 1u);
  }
  // The torn frame the failpoint wrote must be truncated away; the
  // rejected flush was never acked, so the recovered stream is exactly
  // the acked ones.
  svc::IngestDaemon restarted(options);
  EXPECT_GE(restarted.stats().total().recovery.torn_tails_truncated, 1u);
  EXPECT_EQ(restarted.stats().total().recovery.records_replayed, 5u);
  expect_tenant_recovered(restarted, "lammps", chunks, phase(7 * 27.4, 2.0));
}

TEST_F(DurabilityChaosTest, JournalFsyncFailureRejectsButTheFrameMayReplay) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints not compiled in";
  TempDir dir("fp_journal_fsync");
  const auto options = durable_options(dir.path());

  auto expected = std::vector<std::vector<tr::IoRequest>>();
  {
    svc::IngestDaemon daemon(options);
    expected = feed(daemon, "lammps", 3, 27.4);
    // fsync fails after the frame is fully written: the flush is
    // refused (never acked), but its complete frame survives on disk
    // and replays — the documented at-least-once posture for unacked
    // work. Acked flushes are never lost; unacked ones may reappear.
    fp::arm("durability.journal_fsync", 1.0, 7);
    const auto ghost = phase(3 * 27.4, 2.0);
    EXPECT_EQ(daemon.submit("lammps", std::vector<tr::IoRequest>(ghost)),
              svc::Admission::kRejectedDurability);
    fp::disarm_all();
    expected.push_back(ghost);  // replays even though it was rejected
    const auto more = feed(daemon, "lammps", 2, 27.4, 4 * 27.4);
    expected.insert(expected.end(), more.begin(), more.end());
  }
  svc::IngestDaemon restarted(options);
  EXPECT_EQ(restarted.stats().total().recovery.records_replayed, 6u);
  expect_tenant_recovered(restarted, "lammps", expected, phase(7 * 27.4, 2.0));
}

TEST_F(DurabilityChaosTest, JournalRotateFailureRejectsAndRecovers) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints not compiled in";
  TempDir dir("fp_journal_rotate");
  auto options = durable_options(dir.path());
  options.durability.max_segment_bytes = 1;  // every append rotates

  auto expected = std::vector<std::vector<tr::IoRequest>>();
  {
    svc::IngestDaemon daemon(options);
    expected = feed(daemon, "lammps", 3, 27.4);
    EXPECT_GE(daemon.stats().total().journal_rotations, 2u);
    fp::arm("durability.journal_rotate", 1.0, 7);
    const auto ghost = phase(3 * 27.4, 2.0);
    EXPECT_EQ(daemon.submit("lammps", std::vector<tr::IoRequest>(ghost)),
              svc::Admission::kRejectedDurability);
    fp::disarm_all();
    expected.push_back(ghost);  // frame completed before rotation failed
    const auto more = feed(daemon, "lammps", 2, 27.4, 4 * 27.4);
    expected.insert(expected.end(), more.begin(), more.end());
  }
  svc::IngestDaemon restarted(options);
  expect_tenant_recovered(restarted, "lammps", expected, phase(7 * 27.4, 2.0));
}

TEST_F(DurabilityChaosTest, CheckpointFailpointsNeverCostJournaledData) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints not compiled in";
  for (const char* point :
       {"durability.checkpoint_write", "durability.checkpoint_fsync",
        "durability.checkpoint_rename"}) {
    SCOPED_TRACE(point);
    fp::disarm_all();
    TempDir dir(std::string("fp_") + point + "_case");
    auto options = durable_options(dir.path());
    options.durability.checkpoint_interval_cycles = 1;  // every cycle

    auto chunks = std::vector<std::vector<tr::IoRequest>>();
    {
      svc::IngestDaemon daemon(options);
      fp::arm(point, 1.0, 7);
      chunks = feed(daemon, "lammps", 5, 27.4);
      // Every checkpoint attempt failed; every flush was still acked.
      EXPECT_GE(daemon.stats().total().checkpoint_failures, 1u);
      EXPECT_EQ(daemon.stats().total().checkpoints_written, 0u);
      // Destroyed with the failpoint still armed: the destructor's
      // stop-pump cannot sneak a successful checkpoint in either.
    }
    fp::disarm_all();
    // No checkpoint survived (checkpoint_write leaves only garbage
    // .tmp files), so recovery rides the journal alone — and loses
    // nothing, because a failed checkpoint never truncates it.
    svc::IngestDaemon restarted(options);
    EXPECT_EQ(restarted.stats().total().recovery.records_replayed, 5u);
    expect_tenant_recovered(restarted, "lammps", chunks, phase(5 * 27.4, 2.0));
  }
}

TEST_F(DurabilityChaosTest, RandomKillAndRestartMatrixNeverLosesAckedFlushes) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints not compiled in";
  // Probabilistic sweep over every durability failpoint at once: some
  // appends tear, some fsyncs fail, some checkpoints abort — acked
  // flushes must survive each kill, torn frames must never be replayed.
  // journal_fsync / journal_rotate are left out of the armed set here
  // because their rejected flushes legitimately replay (covered above),
  // which would make the acked-only reference stream wrong.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    fp::disarm_all();
    TempDir dir("matrix_" + std::to_string(seed));
    auto options = durable_options(dir.path());
    options.durability.checkpoint_interval_cycles = 2;

    std::vector<std::vector<tr::IoRequest>> acked;
    for (int round = 0; round < 3; ++round) {
      svc::IngestDaemon daemon(options);
      fp::arm("durability.journal_write", 0.2, seed * 11 + round);
      fp::arm("durability.checkpoint_write", 0.3, seed * 13 + round);
      fp::arm("durability.checkpoint_fsync", 0.3, seed * 17 + round);
      fp::arm("durability.checkpoint_rename", 0.3, seed * 19 + round);
      for (int i = 0; i < 8; ++i) {
        const int flush = round * 8 + i;
        auto chunk = phase(flush * 27.4, 2.0);
        if (svc::admitted(daemon.submit(
                "lammps", std::vector<tr::IoRequest>(chunk)))) {
          acked.push_back(std::move(chunk));
        }
        pump_all(daemon);
      }
      fp::disarm_all();
      // Daemon destroyed without a final checkpoint: the kill.
    }
    svc::IngestDaemon survivor(options);
    expect_tenant_recovered(survivor, "lammps", acked, phase(24 * 27.4, 2.0));
  }
}

TEST_F(DurabilityChaosTest, DestroyAfterCheckpointPumpLosesNoAckedFlush) {
  TempDir dir("inflight_destroy");
  auto options = durable_options(dir.path());
  options.durability.checkpoint_interval_cycles = 3;

  std::vector<std::vector<tr::IoRequest>> chunks;
  {
    svc::IngestDaemon daemon(options);
    for (int i = 0; i < 6; ++i) {
      chunks.push_back(phase(i * 27.4, 2.0));
      submit_and_pump_once(daemon, "lammps", chunks.back());
    }
    // The sixth cycle just handed a checkpoint to its writer. Destroy
    // the daemon at once: teardown must wait for that write, not pull
    // the shard out from under it.
  }
  svc::IngestDaemon restarted(options);
  const auto recovery = restarted.stats().total().recovery;
  EXPECT_EQ(recovery.tenants_restored, 1u);
  EXPECT_EQ(recovery.sessions_restored, 1u);
  EXPECT_EQ(recovery.records_replayed, 0u);  // the in-flight one covers all
  expect_tenant_recovered(restarted, "lammps", chunks, phase(6 * 27.4, 2.0));
}

TEST_F(DurabilityChaosTest, CrashAfterCheckpointPumpWaitsForTheWriter) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints not compiled in";
  TempDir dir("inflight_crash");
  auto options = durable_options(dir.path());
  options.durability.checkpoint_interval_cycles = 3;
  svc::IngestDaemon daemon(options);

  std::vector<std::vector<tr::IoRequest>> chunks;
  for (int i = 0; i < 3; ++i) {
    chunks.push_back(phase(i * 27.4, 2.0));
    submit_and_pump_once(daemon, "lammps", chunks.back());
  }
  // Cycle 3 started a checkpoint; the very next cycle crashes. The
  // restart must wait for the writer before it reads the directory:
  // then it restores the checkpoint and replays only the queued flush.
  // Reading too early finds no checkpoint and replays all four.
  chunks.push_back(phase(3 * 27.4, 2.0));
  ASSERT_TRUE(svc::admitted(
      daemon.submit("lammps", std::vector<tr::IoRequest>(chunks.back()))));
  fp::arm("service.shard_crash", 1.0, 42);
  daemon.pump();
  fp::disarm_all();
  pump_all(daemon);

  const auto stats = daemon.stats().total();
  EXPECT_EQ(stats.shard_restarts, 1u);
  EXPECT_EQ(stats.checkpoints_written, 1u);
  EXPECT_EQ(stats.checkpoint_failures, 0u);
  EXPECT_EQ(stats.recovery.tenants_restored, 1u);
  EXPECT_EQ(stats.recovery.sessions_restored, 1u);
  EXPECT_EQ(stats.recovery.records_replayed, 1u);
  expect_tenant_recovered(daemon, "lammps", chunks, phase(4 * 27.4, 2.0));
}

TEST_F(DurabilityChaosTest, TempFilesOfFailedCheckpointWritesAreSwept) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints not compiled in";
  TempDir dir("stale_temp");
  auto options = durable_options(dir.path());
  // pump_all runs two cycles per flush (the flush, then an empty one),
  // so every fed flush starts exactly one checkpoint.
  options.durability.checkpoint_interval_cycles = 2;
  const fs::path shard_dir = dir.path() / "shard-0";

  std::vector<std::vector<tr::IoRequest>> chunks;
  {
    svc::IngestDaemon daemon(options);
    fp::arm("durability.checkpoint_write", 1.0, 7);
    chunks = feed(daemon, "lammps", 1, 27.4);
    fp::disarm_all();
    EXPECT_EQ(daemon.stats().total().checkpoint_failures, 1u);
    EXPECT_TRUE(has_checkpoint_temp(shard_dir));

    // The next write succeeds, and its prune pass sweeps the remains.
    auto more = feed(daemon, "lammps", 1, 27.4, 27.4);
    chunks.insert(chunks.end(), more.begin(), more.end());
    EXPECT_EQ(daemon.stats().total().checkpoints_written, 1u);
    EXPECT_FALSE(has_checkpoint_temp(shard_dir));

    // A last failed write is left for recovery to sweep.
    fp::arm("durability.checkpoint_write", 1.0, 7);
    more = feed(daemon, "lammps", 1, 27.4, 2 * 27.4);
    chunks.insert(chunks.end(), more.begin(), more.end());
    fp::disarm_all();
    EXPECT_EQ(daemon.stats().total().checkpoint_failures, 2u);
    EXPECT_TRUE(has_checkpoint_temp(shard_dir));
  }
  svc::IngestDaemon restarted(options);
  EXPECT_FALSE(has_checkpoint_temp(shard_dir));
  const auto recovery = restarted.stats().total().recovery;
  EXPECT_EQ(recovery.sessions_restored, 1u);
  EXPECT_EQ(recovery.records_replayed, 1u);  // the flush after checkpoint 1
  expect_tenant_recovered(restarted, "lammps", chunks, phase(3 * 27.4, 2.0));
}
