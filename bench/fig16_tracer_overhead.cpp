// Fig. 16: overhead of the tracing library across rank counts (96 to
// 10752, multiples of 96). Paper reference (online mode): aggregated
// overhead at most 0.6%, rank-0 overhead at most 6.9%; offline mode
// ranged from 0.13% (96 ranks) to 0.004% (4608) aggregated and 1.03% to
// 1.58% for rank 0. "The data gathering from the different ranks is the
// major source of overhead."
//
// Substitution (documented in DESIGN.md): 10752 live ranks are not
// possible here, so the per-record and per-flush costs are *measured*
// with live concurrent threads and composed into the paper's rank ladder
// using the IOR phase model (8 iterations x 2 segments x 5 requests per
// rank, ~11 s of I/O + ~100 s of compute per iteration).

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "tmio/tracer.hpp"
#include "trace/model.hpp"
#include "util/table.hpp"

#include <iostream>

namespace {

struct MeasuredCosts {
  double record_seconds = 0.0;  ///< mean wall time of one record() call
  double flush_seconds_per_record = 0.0;
};

/// Measures the tracer's per-call costs with live concurrent ranks.
MeasuredCosts measure(ftio::tmio::Mode mode, int live_ranks, int per_rank) {
  ftio::tmio::Tracer tracer(live_ranks, {.mode = mode, .path = {}});
  std::vector<std::thread> threads;
  threads.reserve(live_ranks);
  for (int rank = 0; rank < live_ranks; ++rank) {
    threads.emplace_back([&tracer, rank, per_rank] {
      for (int i = 0; i < per_rank; ++i) {
        tracer.record(rank, ftio::trace::IoKind::kWrite, i * 1.0,
                      i * 1.0 + 0.5, 2 << 20);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (mode == ftio::tmio::Mode::kOnline) {
    for (int f = 0; f < 8; ++f) tracer.flush(static_cast<double>(f));
  } else {
    tracer.finalize();
  }
  const auto o = tracer.overhead();
  MeasuredCosts costs;
  costs.record_seconds =
      o.record_seconds / static_cast<double>(o.record_count);
  costs.flush_seconds_per_record =
      o.flush_seconds / static_cast<double>(o.record_count);
  return costs;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::print_header(
      "Fig. 16: tracing-library overhead across rank counts",
      "paper (online): aggregated <= 0.6%, rank 0 <= 6.9%");

  const int live = static_cast<int>(
      std::min<unsigned>(std::thread::hardware_concurrency(), 16));
  const int per_rank = args.full ? 50'000 : 10'000;
  std::printf("measuring per-call costs with %d live ranks x %d records "
              "each...\n\n", live, per_rank);

  const auto online = measure(ftio::tmio::Mode::kOnline, live, per_rank);
  const auto offline = measure(ftio::tmio::Mode::kOffline, live, per_rank);
  std::printf("measured record(): %.0f ns; online flush: %.0f ns/record; "
              "offline finalize: %.0f ns/record\n\n",
              1e9 * online.record_seconds,
              1e9 * online.flush_seconds_per_record,
              1e9 * offline.flush_seconds_per_record);

  // Compose the paper's IOR configuration: per rank, 8 iterations of
  // (2 segments x 5 requests) writes; app time per rank ~ 8 x 111.7 s.
  const int requests_per_rank = 8 * 2 * 5;
  const double app_seconds_per_rank = 8 * 111.7;

  ftio::util::ConsoleTable table({"ranks", "records", "agg overhead",
                                  "agg %", "rank-0 %", "mode"});
  for (int ranks : {96, 384, 1536, 4608, 10752}) {
    for (const bool is_online : {true, false}) {
      const auto& c = is_online ? online : offline;
      const double records =
          static_cast<double>(ranks) * requests_per_rank;
      // Aggregated: all ranks' record costs + the flush/serialisation cost
      // (which rank 0 pays in TMIO's gather design).
      const double record_total = records * c.record_seconds;
      const double flush_total = records * c.flush_seconds_per_record;
      const double agg_overhead = record_total + flush_total;
      const double agg_app = app_seconds_per_rank * ranks;
      // Rank 0: its own records plus the whole gather/flush cost.
      const double rank0_overhead =
          requests_per_rank * c.record_seconds + flush_total;
      table.add_row({std::to_string(ranks),
                     std::to_string(static_cast<long long>(records)),
                     ftio::util::ConsoleTable::num(agg_overhead, 4) + " s",
                     ftio::util::ConsoleTable::percent(agg_overhead / agg_app, 4),
                     ftio::util::ConsoleTable::percent(
                         rank0_overhead / app_seconds_per_rank, 3),
                     is_online ? "online" : "offline"});
    }
  }
  table.print(std::cout);
  std::printf("\npaper bounds: online aggregated <= 0.6%%, online rank-0 <= "
              "6.9%%; offline aggregated 0.004-0.13%%, rank-0 1.03-1.58%%\n");
  return 0;
}
