// End-to-end and per-layer benchmark of the FTIO reproduction.
//
//   perfbench --workload <offline_corpus|online_steady|online_durable>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints human-readable lines on stderr and, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the workload's end-to-end metrics, with
// --trace 1 the per-layer metrics. Exits 1 when a correctness check
// fails, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <offline_corpus|"
               "online_steady|online_durable> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc % 2 == 0) return usage("flags take one value each");
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::string_view(value) == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (config.seconds <= 0.0) return usage("--seconds must be positive");

  try {
    perfbench::Report report;
    if (config.workload == "offline_corpus") {
      report = perfbench::run_offline_corpus(config);
    } else if (config.workload == "online_steady") {
      report = perfbench::run_online(config, false);
    } else if (config.workload == "online_durable") {
      report = perfbench::run_online(config, true);
    } else {
      return usage("unknown workload");
    }
    perfbench::print_report(report);
    return report.check_failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
