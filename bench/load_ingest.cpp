// Load-generator harness for the ingest daemon: the overload acceptance
// proof for ROADMAP item 1. Drives millions of synthetic tenant
// sessions with Zipf-skewed flush rates through an IngestDaemon and
// reports admission breakdown, ladder transitions, resident-session
// occupancy, and per-shard latency percentiles.
//
// Three claims this binary exists to demonstrate on a small container:
//
//  1. bounded memory: `--tenants 1000000` runs in
//     O(shards * max_tenants_per_shard) resident sessions — the
//     eviction and pre-materialization tiers absorb the long tail;
//  2. graceful shedding: `--overload 2` (submit two flushes per drained
//     item) drives rejections and ladder step-downs, never unbounded
//     queues or a dead daemon;
//  3. chaos survival: `--chaos P` arms every service failpoint at
//     probability P (needs a build with -DFTIO_ENABLE_FAILPOINTS=ON)
//     and the run must still satisfy the `--check` invariants.
//
// `--check` verifies the backpressure invariants after the run (queue
// bound respected, conservation of accepted vs processed work, resident
// sessions within the eviction cap) and exits non-zero on violation —
// CI runs the short smoke with it.
//
// Examples:
//   load_ingest --tenants 1000000 --flushes 2000000 --check
//   load_ingest --tenants 2000 --flushes 20000 --overload 2 --check
//   load_ingest --tenants 500 --flushes 5000 --chaos 0.05 --seed 7

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "service/daemon.hpp"
#include "service/service.hpp"
#include "trace/model.hpp"
#include "util/failpoints.hpp"

namespace {

struct Config {
  std::size_t tenants = 1'000'000;
  std::size_t flushes = 2'000'000;
  std::size_t shards = 2;
  std::size_t mailbox_capacity = 256;
  std::size_t max_tenants_per_shard = 4096;
  std::size_t materialize_after = 64;
  double zipf = 1.1;
  /// Flushes submitted per pump cycle, as a multiple of what one cycle
  /// drains; > 1 is sustained overload.
  double overload = 1.0;
  double chaos = 0.0;
  std::uint64_t seed = 42;
  bool check = false;
  bool background = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--tenants N] [--flushes N] [--shards N]\n"
      "          [--capacity N] [--max-tenants-per-shard N]\n"
      "          [--materialize-after N] [--zipf S] [--overload X]\n"
      "          [--chaos P] [--seed N] [--background] [--check]\n",
      argv0);
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--tenants") config.tenants = std::strtoull(value(), nullptr, 10);
    else if (arg == "--flushes") config.flushes = std::strtoull(value(), nullptr, 10);
    else if (arg == "--shards") config.shards = std::strtoull(value(), nullptr, 10);
    else if (arg == "--capacity") config.mailbox_capacity = std::strtoull(value(), nullptr, 10);
    else if (arg == "--max-tenants-per-shard") config.max_tenants_per_shard = std::strtoull(value(), nullptr, 10);
    else if (arg == "--materialize-after") config.materialize_after = std::strtoull(value(), nullptr, 10);
    else if (arg == "--zipf") config.zipf = std::strtod(value(), nullptr);
    else if (arg == "--overload") config.overload = std::strtod(value(), nullptr);
    else if (arg == "--chaos") config.chaos = std::strtod(value(), nullptr);
    else if (arg == "--seed") config.seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--background") config.background = true;
    else if (arg == "--check") config.check = true;
    else usage(argv[0]);
  }
  if (config.tenants == 0 || config.flushes == 0) usage(argv[0]);
  return config;
}

/// Zipf(s) rank sampler over [0, n) by inverse-CDF bisection on the
/// precomputed harmonic prefix (Zipfian in the proper sense, not a
/// power-law approximation). O(n) doubles once, O(log n) per draw.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s, std::uint64_t seed)
      : cdf_(n), rng_(seed) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }

  std::size_t operator()() {
    const double u = uniform_(rng_);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
};

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

const char* const kFailpoints[] = {
    "service.alloc",        "service.session_throw", "service.slow_shard",
    "service.shard_crash",  "service.queue_overflow", "trace.parse_garbage",
};

int check_invariants(const ftio::service::DaemonStats& stats,
                     const Config& config, bool crash_fired) {
  int failures = 0;
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    ++failures;
  };
  for (std::size_t s = 0; s < stats.shards.size(); ++s) {
    const auto& shard = stats.shards[s];
    if (shard.queue_max_depth > shard.queue_capacity) {
      fail("mailbox exceeded its capacity bound");
    }
    if (shard.live_sessions > config.max_tenants_per_shard) {
      fail("resident sessions exceeded max_tenants_per_shard");
    }
    if (shard.queue_depth != 0) fail("queue not empty after drain");
  }
  // Coalesced flushes merge into already-queued items, so item
  // conservation is against accepted alone.
  const auto total = stats.total();
  if (total.processed_items > total.accepted) {
    fail("processed more items than were admitted");
  }
  // A crashed shard cycle loses its popped batch by design; without
  // crashes every admitted item must complete.
  if (!crash_fired && total.processed_items != total.accepted) {
    fail("admitted work lost without a shard crash");
  }
  if (total.submitted != total.accepted + total.coalesced +
                             total.rejected_queue_full +
                             total.rejected_poisoned +
                             total.rejected_stopped) {
    fail("admission verdicts do not sum to submissions");
  }
  return failures;
}

void print_histogram(const char* label,
                     const ftio::service::LatencyHistogram& h) {
  std::printf("  %-14s p50 %8.0f us   p95 %8.0f us   p99 %8.0f us\n", label,
              h.percentile(0.50) * 1e6, h.percentile(0.95) * 1e6,
              h.percentile(0.99) * 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = parse_args(argc, argv);
  namespace fp = ftio::util::failpoints;

  if (config.chaos > 0.0) {
    if (!fp::compiled_in()) {
      std::fprintf(stderr,
                   "--chaos needs a build with -DFTIO_ENABLE_FAILPOINTS=ON\n");
      return 2;
    }
    for (const char* name : kFailpoints) {
      fp::arm(name, config.chaos, config.seed);
    }
  }

  ftio::service::ServiceOptions options;
  options.shards = config.shards;
  options.background = config.background;
  options.mailbox_capacity = config.mailbox_capacity;
  options.max_tenants_per_shard = config.max_tenants_per_shard;
  options.materialize_after_requests = config.materialize_after;
  options.session.online.base.sampling_frequency = 2.0;

  ftio::service::IngestDaemon daemon(options);
  ZipfSampler sample(config.tenants, config.zipf, config.seed);
  // Per-tenant flush phase counters so repeated flushes of a hot tenant
  // extend its waveform instead of re-submitting the same window.
  std::vector<std::uint32_t> next_flush(config.tenants, 0);

  // Submissions per pump: overload x what one pump can drain.
  const std::size_t burst = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.overload *
                                  static_cast<double>(options.drain_batch) *
                                  static_cast<double>(config.shards)));

  const auto t0 = std::chrono::steady_clock::now();
  std::string name;
  std::size_t submitted = 0;
  while (submitted < config.flushes) {
    const std::size_t n = std::min(burst, config.flushes - submitted);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t tenant = sample();
      name = "tenant-";
      name += std::to_string(tenant);
      const double start = 10.0 * next_flush[tenant]++;
      static_cast<void>(daemon.submit(name, phase(start, 2.0, 4)));
    }
    submitted += n;
    if (!config.background) daemon.pump();
  }
  daemon.drain();
  const auto stats = daemon.stats();
  daemon.stop();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  bool crash_fired = false;
  if (config.chaos > 0.0) {
    crash_fired = fp::fire_count("service.shard_crash") > 0;
    for (const char* fpn : kFailpoints) {
      std::printf("failpoint %-24s fired %zu\n", fpn, fp::fire_count(fpn));
    }
    fp::disarm_all();
  }

  const auto total = stats.total();
  std::printf(
      "load_ingest: %zu flushes over %zu tenants (zipf %.2f, %zu shards, "
      "overload %.1fx) in %.2fs — %.0f flushes/s\n",
      config.flushes, config.tenants, config.zipf, config.shards,
      config.overload, seconds, static_cast<double>(config.flushes) / seconds);
  std::printf(
      "admission: accepted %zu coalesced %zu rejected_full %zu "
      "rejected_poisoned %zu\n",
      total.accepted, total.coalesced, total.rejected_queue_full,
      total.rejected_poisoned);
  std::printf(
      "work: processed %zu (requests %zu) analyses %zu "
      "(coalesced %zu, grouped %zu) deferred %zu dropped_ingest_only %zu\n",
      total.processed_items, total.processed_requests, total.analyses,
      total.coalesced_analyses, total.grouped_analyses, total.deferred_flushes,
      total.dropped_ingest_only);
  std::printf(
      "ladder: step_downs %zu step_ups %zu | faults: poisoned %zu "
      "restarts %zu | occupancy: tenants %zu sessions %zu evicted %zu\n",
      total.ladder_step_downs, total.ladder_step_ups, total.poisoned_sessions,
      total.shard_restarts, total.tenants, total.live_sessions,
      total.evicted_idle);
  for (std::size_t s = 0; s < stats.shards.size(); ++s) {
    std::printf("shard %zu (max depth %zu/%zu):\n", s,
                stats.shards[s].queue_max_depth,
                stats.shards[s].queue_capacity);
    print_histogram("queue_wait", stats.shards[s].queue_wait);
    print_histogram("process_time", stats.shards[s].process_time);
  }

  if (config.check) {
    const int failures = check_invariants(stats, config, crash_fired);
    if (failures > 0) {
      std::fprintf(stderr, "load_ingest: %d invariant(s) violated\n",
                   failures);
      return 1;
    }
    std::printf("load_ingest: all invariants hold\n");
  }
  return 0;
}
