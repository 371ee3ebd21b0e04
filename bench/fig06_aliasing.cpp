// Fig. 6: miniIO with 144 ranks — sampling-frequency selection
// (Sec. II-E). At fs = 100 Hz the discrete signal "does not match the
// original one at all": the abstraction error (volume difference between
// the discrete and original signals) is far too large to trust any
// detected period. Raising fs fixes it.

#include <cstdio>

#include "bench_common.hpp"
#include "core/ftio.hpp"
#include "util/table.hpp"
#include "workloads/apps.hpp"

#include <iostream>

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::print_header(
      "Fig. 6: miniIO (144 ranks) under-sampling / abstraction error",
      "paper: fs = 100 Hz is not enough for miniIO's sub-ms bursts");

  const auto trace = ftio::workloads::generate_miniio_trace({});
  std::printf("trace: %zu requests, burst duration %.1f ms\n\n",
              trace.requests.size(),
              1e3 * trace.requests.front().duration());

  ftio::util::ConsoleTable table(
      {"fs [Hz]", "samples", "abstraction error", "trustworthy"});
  for (double fs : {10.0, 100.0, 1000.0, 5000.0, 20000.0}) {
    ftio::core::FtioOptions opts;
    opts.sampling_frequency = fs;
    opts.with_autocorrelation = false;
    const auto r = ftio::core::detect(trace, opts);
    table.add_row({ftio::util::ConsoleTable::num(fs, 0),
                   std::to_string(r.sample_count),
                   ftio::util::ConsoleTable::num(r.abstraction_error, 4),
                   r.abstraction_error < 0.1 ? "yes" : "no"});
  }
  table.print(std::cout);
  std::printf("\nthe paper's rule (Sec. II-E): derive fs from the smallest "
              "change in bandwidth;\nfor this trace "
              "suggest_sampling_frequency gives %.0f Hz\n",
              ftio::core::suggest_sampling_frequency(trace));
  return 0;
}
