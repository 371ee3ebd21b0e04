// Integration tests: complete pipelines across module boundaries, the way
// a deployment would wire them — tracer -> file -> parser -> analysis,
// heatmap export -> ingestion -> windowed detection, per-rank views on
// tracer output, and format-equivalence of detection results.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/ftio.hpp"
#include "core/online.hpp"
#include "core/per_rank.hpp"
#include "core/profile.hpp"
#include "engine/streaming.hpp"
#include "mpisim/cluster.hpp"
#include "tmio/tracer.hpp"
#include "trace/formats.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "workloads/ior.hpp"

namespace core = ftio::core;
namespace tr = ftio::trace;

namespace {

/// A BSP program with a 25 s period, traced through the virtual cluster.
ftio::trace::Trace traced_bsp_run(ftio::tmio::Format format,
                                  std::vector<std::uint8_t>* sink = nullptr) {
  ftio::mpisim::FileSystemModel fs{8e9, 8e9, 2e9};
  ftio::mpisim::VirtualCluster cluster(8, fs);
  ftio::tmio::Tracer tracer(8, {.format = format, .app_name = "bsp"});
  cluster.attach_tracer(&tracer);
  cluster.run([](ftio::mpisim::RankEnv& env) {
    for (int iter = 0; iter < 14; ++iter) {
      env.compute(22.0);
      env.collective_write(3'000'000'000, 6);  // 3 GB at 1 GB/s -> 3 s
    }
  });
  tracer.finalize();
  if (sink != nullptr) *sink = tracer.sink();
  return tracer.snapshot();
}

}  // namespace

TEST(Integration, TracerFileRoundTripDetection) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = dir / "ftio_integration.jsonl";

  std::vector<std::uint8_t> sink;
  const auto direct = traced_bsp_run(ftio::tmio::Format::kJsonl, &sink);
  ftio::util::write_binary_file(path, sink);

  // Parse the file as an external consumer would.
  const auto loaded = tr::from_jsonl(ftio::util::read_text_file(path));
  EXPECT_EQ(loaded.requests.size(), direct.requests.size());
  EXPECT_EQ(loaded.app, "bsp");

  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  const auto from_file = core::detect(loaded, opts);
  const auto from_memory = core::detect(direct, opts);
  ASSERT_TRUE(from_file.periodic());
  ASSERT_TRUE(from_memory.periodic());
  EXPECT_DOUBLE_EQ(from_file.frequency(), from_memory.frequency());
  EXPECT_NEAR(from_file.period(), 25.0, 1.0);
  std::filesystem::remove(path);
}

TEST(Integration, JsonlAndMsgpackGiveIdenticalResults) {
  std::vector<std::uint8_t> json_sink;
  std::vector<std::uint8_t> mp_sink;
  traced_bsp_run(ftio::tmio::Format::kJsonl, &json_sink);
  traced_bsp_run(ftio::tmio::Format::kMsgpack, &mp_sink);

  const auto from_json = tr::from_jsonl(
      std::string(json_sink.begin(), json_sink.end()));
  const auto from_mp = tr::from_msgpack(mp_sink);
  ASSERT_EQ(from_json.requests.size(), from_mp.requests.size());

  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  const auto a = core::detect(from_json, opts);
  const auto b = core::detect(from_mp, opts);
  ASSERT_TRUE(a.periodic());
  ASSERT_TRUE(b.periodic());
  EXPECT_NEAR(a.period(), b.period(), 1e-9);
  EXPECT_NEAR(a.confidence(), b.confidence(), 1e-9);
}

TEST(Integration, RecorderCsvPipeline) {
  const auto trace = traced_bsp_run(ftio::tmio::Format::kJsonl);
  const auto csv = tr::to_recorder_csv(trace);
  const auto back = tr::from_recorder_csv(csv);

  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  const auto r = core::detect(back, opts);
  ASSERT_TRUE(r.periodic());
  EXPECT_NEAR(r.period(), 25.0, 1.0);
}

TEST(Integration, HeatmapExportThenWindowedAnalysis) {
  const auto trace = traced_bsp_run(ftio::tmio::Format::kJsonl);
  const auto heatmap = tr::heatmap_from_trace(trace, 2.0);
  const auto csv = tr::to_heatmap_csv(heatmap);
  const auto loaded = tr::from_heatmap_csv(csv);

  core::FtioOptions opts;
  opts.sampling_frequency = loaded.implied_sampling_frequency();
  opts.sampling_mode = ftio::signal::SamplingMode::kBinAverage;
  const auto r = core::analyze_bandwidth(loaded.bandwidth(), opts);
  ASSERT_TRUE(r.periodic());
  EXPECT_NEAR(r.period(), 25.0, 2.5);
}

TEST(Integration, PerRankViewOfTracedRun) {
  const auto trace = traced_bsp_run(ftio::tmio::Format::kJsonl);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.with_metrics = false;
  const auto per_rank = core::detect_per_rank(trace, opts);
  ASSERT_EQ(per_rank.size(), 8u);
  for (const auto& r : per_rank) {
    ASSERT_TRUE(r.has_io) << "rank " << r.rank;
    ASSERT_TRUE(r.result.periodic()) << "rank " << r.rank;
    EXPECT_NEAR(r.result.period(), 25.0, 1.0) << "rank " << r.rank;
  }
}

TEST(Integration, OnlinePredictionFromTracerChunks) {
  ftio::mpisim::FileSystemModel fs{8e9, 8e9, 2e9};
  ftio::mpisim::VirtualCluster cluster(4, fs);
  ftio::tmio::Tracer tracer(4, {.mode = ftio::tmio::Mode::kOnline});
  cluster.attach_tracer(&tracer);

  ftio::engine::StreamingOptions options;
  options.online.base.sampling_frequency = 1.0;
  options.online.base.with_metrics = false;
  ftio::engine::StreamingSession predictor(options);

  core::Prediction last;
  for (int iter = 0; iter < 10; ++iter) {
    cluster.run([](ftio::mpisim::RankEnv& env) {
      env.compute(12.0);
      env.collective_write(6'000'000'000, 6);  // 6 GB at 2 GB/s -> 3 s
    });
    // Read the fresh chunk, then flush (as the paper's Fig. 5 loop does).
    predictor.ingest(tracer.unflushed_chunk());
    tracer.flush(cluster.virtual_time());
    last = predictor.predict();
  }
  ASSERT_TRUE(last.found());
  EXPECT_NEAR(last.period(), 15.0, 1.5);
}

TEST(Integration, IorGeneratorThroughProfile) {
  ftio::workloads::IorConfig config;
  config.ranks = 16;
  config.iterations = 10;
  config.compute_seconds = 40.0;
  // Slow per-rank injection so each phase lasts ~1 s and is visible at
  // fs = 2 Hz (the default model finishes 20 MB in milliseconds).
  config.filesystem.per_rank_bandwidth = 20e6;
  const auto trace = ftio::workloads::generate_ior_trace(config);

  core::FtioOptions opts;
  opts.sampling_frequency = 2.0;
  opts.keep_spectrum = true;
  const auto r = core::detect(trace, opts);
  ASSERT_TRUE(r.periodic());

  // Reference signal, re-sampled the same way detect() did.
  const auto bw = tr::bandwidth_signal(trace);
  std::vector<double> reference(r.sample_count);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    reference[i] = bw.value_at(r.window_start +
                               static_cast<double>(i) / opts.sampling_frequency);
  }

  const auto one = core::build_profile(r, 1);
  const auto five = core::build_profile(r, 5);
  EXPECT_EQ(one.waves.size(), 1u);
  EXPECT_EQ(five.waves.size(), 5u);
  // More waves fit the reference at least as well.
  EXPECT_LE(core::profile_rms_error(five, reference),
            core::profile_rms_error(one, reference) + 1e-9);
  // The strongest wave is the dominant frequency.
  EXPECT_NEAR(one.waves.front().frequency, r.frequency(),
              2.0 * r.spectrum->frequency_step());
}

TEST(Integration, ProfileRequiresSpectrum) {
  ftio::workloads::IorConfig config;
  config.ranks = 4;
  config.iterations = 6;
  const auto trace = ftio::workloads::generate_ior_trace(config);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.keep_spectrum = false;
  const auto r = core::detect(trace, opts);
  EXPECT_THROW(core::build_profile(r, 2), ftio::util::InvalidArgument);
}

TEST(Integration, ProfileBandwidthNonNegative) {
  ftio::workloads::IorConfig config;
  config.ranks = 8;
  config.iterations = 8;
  const auto trace = ftio::workloads::generate_ior_trace(config);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.keep_spectrum = true;
  const auto r = core::detect(trace, opts);
  const auto profile = core::build_profile(r, 8);
  for (double v : profile.sample(512)) EXPECT_GE(v, 0.0);
}
