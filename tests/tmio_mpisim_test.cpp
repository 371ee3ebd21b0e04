#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "core/ftio.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/filesystem.hpp"
#include "tmio/tracer.hpp"
#include "trace/formats.hpp"
#include "util/error.hpp"
#include "util/file.hpp"

namespace mp = ftio::mpisim;
namespace tmio = ftio::tmio;
namespace tr = ftio::trace;

// ---------------------------------------------------------------------------
// FileSystemModel
// ---------------------------------------------------------------------------

TEST(FileSystemModel, PerRankCapBindsAtLowConcurrency) {
  mp::FileSystemModel fs{100e9, 120e9, 1e9};
  EXPECT_DOUBLE_EQ(fs.rank_bandwidth(tr::IoKind::kWrite, 1), 1e9);
  EXPECT_DOUBLE_EQ(fs.rank_bandwidth(tr::IoKind::kWrite, 10), 1e9);
}

TEST(FileSystemModel, FairShareBindsAtHighConcurrency) {
  mp::FileSystemModel fs{100e9, 120e9, 1e9};
  EXPECT_DOUBLE_EQ(fs.rank_bandwidth(tr::IoKind::kWrite, 1000), 100e6);
  EXPECT_DOUBLE_EQ(fs.rank_bandwidth(tr::IoKind::kRead, 1000), 120e6);
}

TEST(FileSystemModel, TransferSecondsScaleWithBytes) {
  mp::FileSystemModel fs{100e9, 120e9, 1e9};
  EXPECT_DOUBLE_EQ(fs.transfer_seconds(tr::IoKind::kWrite, 1'000'000'000, 1),
                   1.0);
  EXPECT_DOUBLE_EQ(fs.transfer_seconds(tr::IoKind::kWrite, 0, 1), 0.0);
}

TEST(FileSystemModel, RejectsBadConcurrency) {
  mp::FileSystemModel fs;
  EXPECT_THROW(fs.rank_bandwidth(tr::IoKind::kWrite, 0),
               ftio::util::InvalidArgument);
}

TEST(FileSystemModel, Presets) {
  EXPECT_DOUBLE_EQ(mp::FileSystemModel::lichtenberg().peak_write_bandwidth,
                   106e9);
  EXPECT_DOUBLE_EQ(mp::FileSystemModel::plafrim().peak_write_bandwidth, 10e9);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, RecordsAndSnapshots) {
  tmio::Tracer tracer(4, {.path = {}, .app_name = "t"});
  tracer.record(0, tr::IoKind::kWrite, 0.0, 1.0, 100);
  tracer.record(3, tr::IoKind::kRead, 0.5, 2.0, 200);
  const auto snap = tracer.snapshot();
  EXPECT_EQ(snap.app, "t");
  EXPECT_EQ(snap.rank_count, 4);
  ASSERT_EQ(snap.requests.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.requests[0].start, 0.0);  // sorted by start
  EXPECT_EQ(snap.requests[1].bytes, 200u);
}

TEST(Tracer, RejectsBadInput) {
  tmio::Tracer tracer(2, {});
  EXPECT_THROW(tracer.record(5, tr::IoKind::kWrite, 0.0, 1.0, 1),
               ftio::util::InvalidArgument);
  EXPECT_THROW(tracer.record(0, tr::IoKind::kWrite, 2.0, 1.0, 1),
               ftio::util::InvalidArgument);
  EXPECT_THROW(tmio::Tracer(0, {}), ftio::util::InvalidArgument);
}

TEST(Tracer, OnlineFlushShipsOnlyNewRecords) {
  tmio::Tracer tracer(
      1, {.mode = tmio::Mode::kOnline, .path = {}, .app_name = "x"});
  tracer.record(0, tr::IoKind::kWrite, 0.0, 1.0, 10);
  tracer.flush(1.0);
  const auto size_after_first = tracer.sink().size();
  EXPECT_GT(size_after_first, 0u);

  tracer.record(0, tr::IoKind::kWrite, 2.0, 3.0, 20);
  tracer.flush(3.0);
  // Parse the sink as JSONL: exactly two io records, one meta, two flush.
  const std::string text(tracer.sink().begin(), tracer.sink().end());
  const auto parsed = tr::from_jsonl(text);
  EXPECT_EQ(parsed.requests.size(), 2u);
  EXPECT_EQ(parsed.app, "x");
}

TEST(Tracer, UnflushedChunkFeedsOnlinePrediction) {
  tmio::Tracer tracer(2, {.mode = tmio::Mode::kOnline, .path = {}});
  tracer.record(0, tr::IoKind::kWrite, 0.0, 1.0, 10);
  tracer.record(1, tr::IoKind::kWrite, 0.2, 1.2, 10);
  auto chunk = tracer.unflushed_chunk();
  EXPECT_EQ(chunk.requests.size(), 2u);
  tracer.flush(2.0);
  chunk = tracer.unflushed_chunk();
  EXPECT_TRUE(chunk.requests.empty());
  tracer.record(1, tr::IoKind::kWrite, 3.0, 4.0, 10);
  EXPECT_EQ(tracer.unflushed_chunk().requests.size(), 1u);
}

TEST(Tracer, MsgpackSinkDecodes) {
  tmio::Tracer tracer(
      1, {.format = tmio::Format::kMsgpack, .path = {}, .app_name = "mp"});
  tracer.record(0, tr::IoKind::kWrite, 0.0, 1.5, 42);
  tracer.finalize();
  const auto parsed = tr::from_msgpack(tracer.sink());
  EXPECT_EQ(parsed.app, "mp");
  ASSERT_EQ(parsed.requests.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.requests[0].end, 1.5);
}

TEST(Tracer, FinalizeIsIdempotent) {
  tmio::Tracer tracer(1, {});
  tracer.record(0, tr::IoKind::kWrite, 0.0, 1.0, 1);
  tracer.finalize();
  const auto size = tracer.sink().size();
  tracer.finalize();
  EXPECT_EQ(tracer.sink().size(), size);
}

TEST(Tracer, WritesFileWhenPathGiven) {
  const auto path = std::filesystem::temp_directory_path() / "tmio_test.jsonl";
  std::filesystem::remove(path);
  {
    tmio::Tracer tracer(1, {.path = path, .app_name = "file"});
    tracer.record(0, tr::IoKind::kWrite, 0.0, 1.0, 7);
    tracer.finalize();
  }
  const auto text = ftio::util::read_text_file(path);
  const auto parsed = tr::from_jsonl(text);
  EXPECT_EQ(parsed.app, "file");
  ASSERT_EQ(parsed.requests.size(), 1u);
  std::filesystem::remove(path);
}

TEST(Tracer, OverheadCountersAccumulate) {
  tmio::Tracer tracer(2, {});
  for (int i = 0; i < 100; ++i) {
    tracer.record(i % 2, tr::IoKind::kWrite, i * 1.0, i * 1.0 + 0.5, 10);
  }
  tracer.flush(100.0);
  const auto o = tracer.overhead();
  EXPECT_EQ(o.record_count, 100u);
  EXPECT_GT(o.record_seconds, 0.0);
  EXPECT_EQ(o.flush_count, 1u);
  EXPECT_GT(o.flush_seconds, 0.0);
  EXPECT_DOUBLE_EQ(o.total_seconds(), o.record_seconds + o.flush_seconds);
}

TEST(Tracer, ConcurrentRanksDoNotLoseRecords) {
  constexpr int kRanks = 8;
  constexpr int kPerRank = 2000;
  tmio::Tracer tracer(kRanks, {});
  std::vector<std::thread> threads;
  for (int rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&tracer, rank] {
      for (int i = 0; i < kPerRank; ++i) {
        tracer.record(rank, tr::IoKind::kWrite, i * 1.0, i * 1.0 + 0.5, 64);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.snapshot().requests.size(),
            static_cast<std::size_t>(kRanks * kPerRank));
  EXPECT_EQ(tracer.overhead().record_count,
            static_cast<std::uint64_t>(kRanks * kPerRank));
}

// ---------------------------------------------------------------------------
// VirtualCluster
// ---------------------------------------------------------------------------

TEST(VirtualCluster, BarrierSynchronisesClocks) {
  mp::VirtualCluster cluster(4, mp::FileSystemModel::lichtenberg());
  cluster.run([](mp::RankEnv& env) {
    env.compute(env.rank() * 1.0);  // rank r computes r seconds
    env.barrier();
    // After the barrier, everyone's clock equals the slowest rank's.
    EXPECT_DOUBLE_EQ(env.now(), 3.0);
  });
  EXPECT_DOUBLE_EQ(cluster.virtual_time(), 3.0);
}

TEST(VirtualCluster, CollectiveWriteChargesFullConcurrency) {
  // 4 ranks, peak 4 GB/s, per-rank 2 GB/s: concurrent share = 1 GB/s.
  mp::FileSystemModel fs{4e9, 4e9, 2e9};
  mp::VirtualCluster cluster(4, fs);
  tmio::Tracer tracer(4, {});
  cluster.attach_tracer(&tracer);
  cluster.run([](mp::RankEnv& env) {
    env.collective_write(1'000'000'000, 1);  // 1 GB at 1 GB/s -> 1 s
  });
  EXPECT_DOUBLE_EQ(cluster.virtual_time(), 1.0);
  const auto snap = tracer.snapshot();
  ASSERT_EQ(snap.requests.size(), 4u);
  for (const auto& r : snap.requests) {
    EXPECT_DOUBLE_EQ(r.duration(), 1.0);
  }
}

TEST(VirtualCluster, IndependentWriteUsesPerRankCap) {
  mp::FileSystemModel fs{4e9, 4e9, 2e9};
  mp::VirtualCluster cluster(2, fs);
  cluster.run([](mp::RankEnv& env) {
    if (env.rank() == 0) env.independent_write(2'000'000'000, 1);  // 1 s
  });
  EXPECT_DOUBLE_EQ(cluster.virtual_time(), 1.0);
}

TEST(VirtualCluster, RequestSplittingPreservesVolume) {
  mp::VirtualCluster cluster(2, mp::FileSystemModel::lichtenberg());
  tmio::Tracer tracer(2, {});
  cluster.attach_tracer(&tracer);
  cluster.run([](mp::RankEnv& env) {
    env.collective_write(10'000'001, 4);  // does not divide evenly
  });
  const auto snap = tracer.snapshot();
  std::uint64_t rank0_bytes = 0;
  for (const auto& r : snap.requests) {
    if (r.rank == 0) rank0_bytes += r.bytes;
  }
  EXPECT_EQ(rank0_bytes, 10'000'001u);
}

TEST(VirtualCluster, PeriodicProgramYieldsDetectablePeriod) {
  // End-to-end: a BSP loop traced through TMIO and analysed by FTIO.
  mp::FileSystemModel fs{8e9, 8e9, 4e9};
  mp::VirtualCluster cluster(8, fs);
  tmio::Tracer tracer(8, {.path = {}, .app_name = "bsp"});
  cluster.attach_tracer(&tracer);
  cluster.run([](mp::RankEnv& env) {
    for (int iter = 0; iter < 12; ++iter) {
      env.compute(18.0);
      env.collective_write(2'000'000'000, 4);  // 2 GB at 1 GB/s -> 2 s
    }
  });
  EXPECT_NEAR(cluster.virtual_time(), 12 * 20.0, 1.0);

  ftio::core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  const auto result = ftio::core::detect(tracer.snapshot(), opts);
  ASSERT_TRUE(result.periodic());
  EXPECT_NEAR(result.period(), 20.0, 1.0);
}

TEST(VirtualCluster, OnlineFlushProducesMarkers) {
  mp::VirtualCluster cluster(4, mp::FileSystemModel::lichtenberg());
  tmio::Tracer tracer(
      4, {.mode = tmio::Mode::kOnline, .path = {}, .app_name = "loop"});
  cluster.attach_tracer(&tracer);
  cluster.run([](mp::RankEnv& env) {
    for (int iter = 0; iter < 3; ++iter) {
      env.compute(5.0);
      env.collective_write(100'000'000, 1);
      env.flush();
    }
  });
  EXPECT_EQ(tracer.overhead().flush_count, 3u);
  const auto parsed =
      tr::from_jsonl(std::string(tracer.sink().begin(), tracer.sink().end()));
  EXPECT_EQ(parsed.requests.size(), 12u);  // 4 ranks x 3 phases
}

TEST(VirtualCluster, RejectsBadConfiguration) {
  EXPECT_THROW(mp::VirtualCluster(0, mp::FileSystemModel{}),
               ftio::util::InvalidArgument);
}
