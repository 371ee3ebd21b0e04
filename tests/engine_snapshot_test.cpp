#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/streaming.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"
#include "workloads/apps.hpp"

namespace core = ftio::core;
namespace eng = ftio::engine;
namespace tr = ftio::trace;
namespace wl = ftio::workloads;

namespace {

/// Splits a workload trace into `flushes` equal-count request chunks in
/// arrival order — the shape the ingest daemon feeds a session.
std::vector<std::vector<tr::IoRequest>> chunk_trace(const tr::Trace& trace,
                                                    std::size_t flushes) {
  std::vector<std::vector<tr::IoRequest>> chunks(flushes);
  const std::size_t per =
      (trace.requests.size() + flushes - 1) / flushes;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    chunks[std::min(i / per, flushes - 1)].push_back(trace.requests[i]);
  }
  return chunks;
}

/// The session posture the snapshot must round-trip exactly: compaction
/// and triage on (the stateful tiers), a bounded history, and the
/// fixed-length strategy, whose look-back moves the sample-cache anchor.
eng::StreamingOptions snapshot_options() {
  eng::StreamingOptions options;
  options.online.base.sampling_frequency = 2.0;
  options.online.base.with_metrics = false;
  options.online.strategy = core::WindowStrategy::kFixedLength;
  options.online.fixed_window = 40.0;
  options.compaction.enabled = true;
  options.compaction.max_history = 16;
  options.triage.enabled = true;
  return options;
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
  EXPECT_EQ(a.from_triage, b.from_triage) << "flush " << flush;
}

/// Streams `chunks` through an uninterrupted session and through one
/// that is serialized + restored into a fresh session mid-stream (after
/// `cut` flushes); every post-cut prediction and the final compaction /
/// triage counters must match byte for byte.
void expect_restore_bit_identical(const tr::Trace& trace, std::size_t flushes,
                                  std::size_t cut) {
  const auto chunks = chunk_trace(trace, flushes);
  const eng::StreamingOptions options = snapshot_options();

  eng::StreamingSession reference(options);
  auto interrupted = std::make_unique<eng::StreamingSession>(options);
  for (std::size_t i = 0; i < cut; ++i) {
    reference.ingest(std::span<const tr::IoRequest>(chunks[i]));
    interrupted->ingest(std::span<const tr::IoRequest>(chunks[i]));
    expect_identical(reference.predict(), interrupted->predict(),
                     static_cast<int>(i));
  }

  // The mid-stream restart: state crosses as bytes, nothing else.
  const std::vector<std::uint8_t> state = interrupted->serialize_state();
  interrupted = std::make_unique<eng::StreamingSession>(options);
  interrupted->restore_state(state);

  // A restored session re-serializes to the identical byte image.
  EXPECT_EQ(interrupted->serialize_state(), state);

  for (std::size_t i = cut; i < chunks.size(); ++i) {
    reference.ingest(std::span<const tr::IoRequest>(chunks[i]));
    interrupted->ingest(std::span<const tr::IoRequest>(chunks[i]));
    expect_identical(reference.predict(), interrupted->predict(),
                     static_cast<int>(i));
  }

  const eng::CompactionStats rc = reference.compaction_stats();
  const eng::CompactionStats ic = interrupted->compaction_stats();
  EXPECT_EQ(rc.compactions, ic.compactions);
  EXPECT_EQ(rc.evicted_events, ic.evicted_events);
  EXPECT_EQ(rc.evicted_segments, ic.evicted_segments);
  EXPECT_EQ(rc.clamped_windows, ic.clamped_windows);
  EXPECT_EQ(rc.retained_start, ic.retained_start);

  const eng::TriageStats rt = reference.triage_stats();
  const eng::TriageStats it = interrupted->triage_stats();
  EXPECT_EQ(rt.full_analyses, it.full_analyses);
  EXPECT_EQ(rt.skipped, it.skipped);
  EXPECT_EQ(rt.drift_retriggers, it.drift_retriggers);
  EXPECT_EQ(rt.confidence_retriggers, it.confidence_retriggers);
  EXPECT_EQ(rt.cadence_retriggers, it.cadence_retriggers);

  EXPECT_EQ(reference.request_count(), interrupted->request_count());
  EXPECT_EQ(reference.end_time(), interrupted->end_time());
}

}  // namespace

TEST(EngineSnapshotTest, LammpsRestoreMidStreamIsBitIdentical) {
  wl::LammpsConfig config;
  config.ranks = 24;
  expect_restore_bit_identical(wl::generate_lammps_trace(config), 12, 7);
}

TEST(EngineSnapshotTest, HaccIoRestoreMidStreamIsBitIdentical) {
  wl::HaccIoConfig config;
  config.ranks = 24;
  expect_restore_bit_identical(wl::generate_haccio_trace(config), 10, 5);
}

TEST(EngineSnapshotTest, MiniIoRestoreMidStreamIsBitIdentical) {
  wl::MiniIoConfig config;
  config.ranks = 16;
  expect_restore_bit_identical(wl::generate_miniio_trace(config), 8, 3);
}

TEST(EngineSnapshotTest, RestoreAtEveryCutPointMatches) {
  // The cut position must not matter: restore after each flush of a
  // short periodic stream and continue to the end.
  wl::HaccIoConfig config;
  config.ranks = 8;
  config.loops = 6;
  const tr::Trace trace = wl::generate_haccio_trace(config);
  for (std::size_t cut = 1; cut < 6; ++cut) {
    expect_restore_bit_identical(trace, 6, cut);
  }
}

TEST(EngineSnapshotTest, EmptySessionRoundTrips) {
  const eng::StreamingOptions options = snapshot_options();
  eng::StreamingSession session(options);
  const auto state = session.serialize_state();
  eng::StreamingSession restored(options);
  restored.restore_state(state);
  EXPECT_EQ(restored.serialize_state(), state);
  EXPECT_EQ(restored.request_count(), 0u);
}

TEST(EngineSnapshotTest, CorruptStateIsRejectedAndSessionUnchanged) {
  wl::LammpsConfig config;
  config.ranks = 8;
  const auto chunks = chunk_trace(wl::generate_lammps_trace(config), 4);
  const eng::StreamingOptions options = snapshot_options();
  eng::StreamingSession session(options);
  for (const auto& chunk : chunks) {
    session.ingest(std::span<const tr::IoRequest>(chunk));
  }
  session.predict();
  const auto before = session.serialize_state();

  // Truncation, garbage, and bit flips must recover-or-reject: a throw
  // is ParseError and leaves the session exactly as it was.
  std::vector<std::uint8_t> truncated(before.begin(),
                                      before.begin() + before.size() / 2);
  EXPECT_THROW(session.restore_state(truncated), ftio::util::ParseError);
  EXPECT_EQ(session.serialize_state(), before);

  std::vector<std::uint8_t> garbage(64, 0xAB);
  EXPECT_THROW(session.restore_state(garbage), ftio::util::ParseError);
  EXPECT_EQ(session.serialize_state(), before);

  // Bit flips in validated fields: the u16 payload version at byte 0,
  // and the most significant byte of the app-name length (the u64 at
  // bytes 2..9), which then claims far more bytes than the payload holds.
  // (A flip in raw numeric data may still parse, so these two positions
  // are chosen where a flip must be caught.)
  for (const std::size_t at : {std::size_t{0}, std::size_t{9}}) {
    std::vector<std::uint8_t> flipped = before;
    flipped[at] ^= 0x40;
    EXPECT_THROW(session.restore_state(flipped), ftio::util::ParseError)
        << at;
    EXPECT_EQ(session.serialize_state(), before) << at;
  }
}
