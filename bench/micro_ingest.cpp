// Microbenchmark: the ingest daemon's per-shard hot paths.
//
//  - BM_MailboxPushPop: the admission point in isolation — one bounded
//    mailbox cycling push/pop_batch, the per-flush queueing overhead
//    every submission pays before any analysis work.
//  - BM_MailboxCoalesce: the same mailbox held at its coalesce depth by
//    a hot tenant, so every push takes the newest-first merge scan —
//    the admission cost under backpressure rather than at rest.
//  - BM_DaemonSteadyIngest: a foreground daemon driving T tenants
//    through submit+pump cycles at kIngestOnly-free steady state; the
//    end-to-end per-flush cost of dispatch, session upkeep, and the
//    drain loop (analysis excluded via an empty-window-short stream).
//  - BM_DaemonOverloadShed: 4x more tenants than mailbox slots with a
//    tiny drain batch — the path a rejected or coalesced flush takes
//    when the shard is saturated, which is exactly the code that must
//    stay cheap for backpressure to protect the process.
//  - BM_DurabilityJournalAppend: BM_DaemonSteadyIngest with the
//    write-ahead journal on — the durability tax per acked flush.
//  - BM_DurabilityRecoveryReplay: crash-only restart over a journal of
//    64 acked flushes (scan + CRC verify + re-ingest).
//  - BM_DurabilitySnapshotRoundTrip: checkpoint serialize + restore of
//    one populated session, the per-tenant checkpoint cost.
//  - BM_DurabilityJournalEncode: framing one 1,300-request flush record
//    (the size of an online_durable flush), bytes/s — the encode share
//    that BM_DurabilityJournalAppend's 8-request flushes hide.
//  - BM_DurabilityCheckpointEncode: framing a 64-tenant checkpoint with
//    0.5 MB session blobs, bytes/s.
//  - BM_DurabilityCrc32c: CRC32C over 4 KiB and 1 MiB buffers, bytes/s.
//  - BM_ParseJsonl / BM_ParseMsgpack: trace::from_jsonl / from_msgpack
//    over one default semi-synthetic application (70,400 requests), the
//    decode every offline trace and every MessagePack flush pays.
//
// Gated in CI against BENCH_micro_ingest.json via compare_bench.py
// --normalize BM_RefRadix2Scalar/65536 (see bench/ref_kernel.hpp).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "durability/checkpoint.hpp"
#include "durability/journal.hpp"
#include "engine/streaming.hpp"
#include "ref_kernel.hpp"
#include "service/daemon.hpp"
#include "service/mailbox.hpp"
#include "service/service.hpp"
#include "trace/formats.hpp"
#include "trace/model.hpp"
#include "util/crc32c.hpp"
#include "workloads/phase_library.hpp"
#include "workloads/semisynthetic.hpp"

namespace {

std::vector<ftio::trace::IoRequest> phase(double start, double burst,
                                          int ranks) {
  std::vector<ftio::trace::IoRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    reqs.push_back(
        {r, start, start + burst, 50'000'000, ftio::trace::IoKind::kWrite});
  }
  return reqs;
}

ftio::service::ServiceOptions foreground_options() {
  ftio::service::ServiceOptions options;
  options.background = false;
  options.shards = 1;
  options.session.online.base.sampling_frequency = 2.0;
  options.session.online.base.with_metrics = false;
  return options;
}

void BM_MailboxPushPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  ftio::service::Mailbox mailbox(/*capacity=*/batch * 2,
                                 /*coalesce_depth=*/batch * 2,
                                 /*max_item_requests=*/4096);
  const auto chunk = phase(0.0, 2.0, 8);
  std::vector<ftio::service::Flush> out;
  out.reserve(batch);
  const auto now = ftio::service::Clock::now();
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      auto copy = chunk;
      benchmark::DoNotOptimize(
          mailbox.push("tenant", std::move(copy), now));
    }
    out.clear();
    benchmark::DoNotOptimize(
        mailbox.pop_batch(out, batch, std::chrono::milliseconds(0)));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_MailboxPushPop)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_MailboxCoalesce(benchmark::State& state) {
  const auto pushes = static_cast<std::size_t>(state.range(0));
  // coalesce_depth 1: every push after the first merges into the queued
  // item, so the loop measures the merge scan, not emplacement.
  ftio::service::Mailbox mailbox(/*capacity=*/4, /*coalesce_depth=*/1,
                                 /*max_item_requests=*/1'000'000'000);
  const auto chunk = phase(0.0, 2.0, 8);
  std::vector<ftio::service::Flush> out;
  const auto now = ftio::service::Clock::now();
  for (auto _ : state) {
    for (std::size_t i = 0; i < pushes; ++i) {
      auto copy = chunk;
      benchmark::DoNotOptimize(
          mailbox.push("tenant", std::move(copy), now));
    }
    out.clear();
    mailbox.pop_batch(out, 4, std::chrono::milliseconds(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(pushes));
}
BENCHMARK(BM_MailboxCoalesce)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_DaemonSteadyIngest(benchmark::State& state) {
  const auto tenants = static_cast<int>(state.range(0));
  const int flushes = 8;
  std::vector<std::string> names;
  for (int t = 0; t < tenants; ++t) names.push_back("tenant-" + std::to_string(t));
  const auto chunk = phase(0.0, 2.0, 8);
  for (auto _ : state) {
    ftio::service::IngestDaemon daemon(foreground_options());
    for (int f = 0; f < flushes; ++f) {
      for (const auto& name : names) {
        benchmark::DoNotOptimize(daemon.submit(
            name, std::span<const ftio::trace::IoRequest>(chunk)));
      }
      daemon.pump();
    }
    daemon.stop();
  }
  state.SetItemsProcessed(state.iterations() * tenants * flushes);
  state.counters["per_flush_us"] = benchmark::Counter(
      static_cast<double>(state.iterations() * tenants * flushes) * 1e-6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DaemonSteadyIngest)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_DaemonOverloadShed(benchmark::State& state) {
  const auto tenants = static_cast<int>(state.range(0));
  auto options = foreground_options();
  options.mailbox_capacity = static_cast<std::size_t>(tenants) / 4;
  options.drain_batch = 1;
  std::vector<std::string> names;
  for (int t = 0; t < tenants; ++t) names.push_back("tenant-" + std::to_string(t));
  const auto chunk = phase(0.0, 2.0, 8);
  double rejected = 0.0;
  for (auto _ : state) {
    ftio::service::IngestDaemon daemon(options);
    for (int round = 0; round < 4; ++round) {
      for (const auto& name : names) {
        benchmark::DoNotOptimize(daemon.submit(
            name, std::span<const ftio::trace::IoRequest>(chunk)));
      }
      daemon.pump();
    }
    const auto total = daemon.stats().total();
    rejected = static_cast<double>(total.rejected_queue_full);
    daemon.stop();
  }
  state.SetItemsProcessed(state.iterations() * tenants * 4);
  state.counters["rejected"] = rejected;
}
BENCHMARK(BM_DaemonOverloadShed)->Arg(64)->Unit(benchmark::kMillisecond);

ftio::service::ServiceOptions durable_options(const std::filesystem::path& dir) {
  auto options = foreground_options();
  options.durability.enabled = true;
  options.durability.directory = dir.string();
  // Group-commit posture: measure the append/frame path, not the raw
  // device sync latency (which would swamp the gate with device noise).
  options.durability.fsync_every_records = 16;
  options.durability.checkpoint_interval_cycles = 1'000'000;
  options.durability.checkpoint_on_stop = false;
  return options;
}

std::filesystem::path bench_dir(const char* tag) {
  auto dir = std::filesystem::temp_directory_path() /
             ("ftio_bench_durability_" + std::string(tag) + "_" +
              std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

/// BM_DaemonSteadyIngest with the write-ahead journal on: the durability
/// tax every acked flush pays (frame encode + CRC + buffered write, one
/// fsync per 16 records).
void BM_DurabilityJournalAppend(benchmark::State& state) {
  const auto tenants = static_cast<int>(state.range(0));
  const int flushes = 8;
  const auto dir = bench_dir("append");
  std::vector<std::string> names;
  for (int t = 0; t < tenants; ++t) names.push_back("tenant-" + std::to_string(t));
  const auto chunk = phase(0.0, 2.0, 8);
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
    ftio::service::IngestDaemon daemon(durable_options(dir));
    for (int f = 0; f < flushes; ++f) {
      for (const auto& name : names) {
        benchmark::DoNotOptimize(daemon.submit(
            name, std::span<const ftio::trace::IoRequest>(chunk)));
      }
      daemon.pump();
    }
    daemon.stop();
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * tenants * flushes);
  state.counters["per_flush_us"] = benchmark::Counter(
      static_cast<double>(state.iterations() * tenants * flushes) * 1e-6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DurabilityJournalAppend)->Arg(16)->Unit(benchmark::kMillisecond);

/// Crash-only restart cost: construct a daemon over a directory holding
/// a journal of N acked flushes (no checkpoint) — scan, CRC-verify, and
/// re-ingest every record. Recovery is read-only on a clean directory,
/// so iterations see identical state.
void BM_DurabilityRecoveryReplay(benchmark::State& state) {
  const auto flushes = static_cast<int>(state.range(0));
  const auto dir = bench_dir("replay");
  const auto options = durable_options(dir);
  {
    ftio::service::IngestDaemon writer(options);
    for (int f = 0; f < flushes; ++f) {
      writer.submit("tenant-0", phase(f * 30.0, 2.0, 8));
      writer.pump();
    }
    writer.stop();
  }
  for (auto _ : state) {
    ftio::service::IngestDaemon daemon(options);
    benchmark::DoNotOptimize(daemon.stats().total().recovery.records_replayed);
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * flushes);
}
BENCHMARK(BM_DurabilityRecoveryReplay)->Arg(64)->Unit(benchmark::kMillisecond);

/// The checkpoint hot path in isolation: serialize_state of a populated
/// session (what every checkpointed tenant costs) plus the restore
/// (what recovery pays per snapshot).
void BM_DurabilitySnapshotRoundTrip(benchmark::State& state) {
  ftio::engine::StreamingOptions options;
  options.online.base.sampling_frequency = 2.0;
  options.online.base.with_metrics = false;
  options.compaction.enabled = true;
  options.triage.enabled = true;
  ftio::engine::StreamingSession session(options);
  for (int f = 0; f < 32; ++f) {
    const auto chunk = phase(f * 30.0, 2.0, 8);
    session.ingest(std::span<const ftio::trace::IoRequest>(chunk));
  }
  session.predict();
  std::vector<std::uint8_t> blob;
  for (auto _ : state) {
    blob = session.serialize_state();
    ftio::engine::StreamingSession restored(options);
    restored.restore_state(blob);
    benchmark::DoNotOptimize(restored.request_count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blob.size()));
  state.counters["blob_bytes"] = static_cast<double>(blob.size());
}
BENCHMARK(BM_DurabilitySnapshotRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_DurabilityJournalEncode(benchmark::State& state) {
  ftio::durability::JournalRecord record;
  record.seq = 12345;
  record.tenant = "tenant-7";
  record.requests = phase(100.0, 2.0, 1300);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto frame = ftio::durability::encode_journal_record(record);
    bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DurabilityJournalEncode)->Unit(benchmark::kMicrosecond);

void BM_DurabilityCheckpointEncode(benchmark::State& state) {
  ftio::durability::CheckpointData data;
  data.floor_seq = 99;
  data.tenants.resize(64);
  for (std::size_t t = 0; t < data.tenants.size(); ++t) {
    auto& tenant = data.tenants[t];
    tenant.name = "tenant-" + std::to_string(t);
    tenant.last_applied_seq = 100 + t;
    tenant.has_session = true;
    tenant.session_state.resize(512u << 10);
    for (std::size_t i = 0; i < tenant.session_state.size(); ++i) {
      tenant.session_state[i] = static_cast<std::uint8_t>(i * 131 + t);
    }
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto image = ftio::durability::encode_checkpoint(data);
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
// ~15 ms an iteration: CI's 0.05 s budget would time only three.
BENCHMARK(BM_DurabilityCheckpointEncode)
    ->MinTime(0.5)
    ->Unit(benchmark::kMillisecond);

void BM_DurabilityCrc32c(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftio::util::crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DurabilityCrc32c)->Arg(4096)->Arg(1 << 20)->Unit(
    benchmark::kMicrosecond);

/// The default semi-synthetic application: 20 iterations, 70,400
/// requests, ~7.6 MB of JSONL.
const ftio::trace::Trace& parse_bench_trace() {
  static const ftio::trace::Trace trace =
      ftio::workloads::generate_semisynthetic(
          {}, ftio::workloads::make_phase_library())
          .trace;
  return trace;
}

template <class Encoded, class Parse>
void run_parse_bench(benchmark::State& state, const Encoded& encoded,
                     Parse parse) {
  std::size_t requests = 0;
  for (auto _ : state) {
    const ftio::trace::Trace trace = parse(encoded);
    requests = trace.requests.size();
    benchmark::DoNotOptimize(trace.requests.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(encoded.size()));
  state.counters["requests"] = static_cast<double>(requests);
}

void BM_ParseJsonl(benchmark::State& state) {
  run_parse_bench(state, ftio::trace::to_jsonl(parse_bench_trace()),
                  [](const std::string& text) {
                    return ftio::trace::from_jsonl(text);
                  });
}
// One parse takes several milliseconds, so CI's 0.05 s budget would time
// only a handful of iterations; the floor keeps the gate window meaningful.
BENCHMARK(BM_ParseJsonl)->MinTime(0.5)->Unit(benchmark::kMillisecond);

void BM_ParseMsgpack(benchmark::State& state) {
  run_parse_bench(state, ftio::trace::to_msgpack(parse_bench_trace()),
                  [](const std::vector<std::uint8_t>& bytes) {
                    return ftio::trace::from_msgpack(bytes);
                  });
}
BENCHMARK(BM_ParseMsgpack)->MinTime(0.5)->Unit(benchmark::kMillisecond);

}  // namespace

// Frozen cross-machine gate pivot (see bench/ref_kernel.hpp).
FTIO_REGISTER_REF_KERNEL_BENCH();

BENCHMARK_MAIN();
