// Fig. 7: example semi-synthetic application traces (Sec. III-A), the
// three illustrated regimes:
//   (a) t_cpu = 1/4 of the I/O phase duration,
//   (b) t_cpu ~ N(11, 22^2) truncated positive,
//   (c) mean delta_k = 22 s added to the processes' I/O phases.
// The three traces run through core::detect under util::parallel_for.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/ftio.hpp"
#include "trace/model.hpp"
#include "util/parallel.hpp"
#include "workloads/semisynthetic.hpp"

namespace {

void describe(const char* label, const ftio::workloads::SemiSyntheticApp& app,
              const ftio::core::FtioResult& r, const char* note) {
  std::printf("%s  (%s)\n", label, note);
  std::printf("  phases: %zu, mean period T-bar: %.2f s, duration: %.1f s, "
              "requests: %zu\n",
              app.phase_starts.size(), app.mean_period, app.trace.duration(),
              app.trace.requests.size());
  if (r.periodic()) {
    std::printf("  FTIO: period %.2f s (error %.1f%%, confidence %.0f%%)\n\n",
                r.period(), 100.0 * app.detection_error(r.period()),
                100.0 * r.refined_confidence);
  } else {
    std::printf("  FTIO: no dominant frequency\n\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::print_header("Fig. 7: semi-synthetic trace examples",
                      "the three regimes illustrated in the paper");

  ftio::workloads::PhaseLibraryConfig lib_config;
  lib_config.phase_count = args.full ? 99 : 30;
  const auto library = ftio::workloads::make_phase_library(lib_config);
  std::printf("phase library: %zu phases, 32 processes, 3.5 GB each\n\n",
              library.size());

  std::vector<ftio::workloads::SemiSyntheticApp> apps;
  {
    ftio::workloads::SemiSyntheticConfig c;
    c.tcpu_mean = 10.4 / 4.0;  // (a): t_cpu is a quarter of the I/O length
    c.seed = args.seed;
    apps.push_back(ftio::workloads::generate_semisynthetic(c, library));
  }
  {
    ftio::workloads::SemiSyntheticConfig c;
    c.tcpu_mean = 11.0;  // (b): t_cpu ~ N(11, 22^2)
    c.tcpu_sigma = 22.0;
    c.seed = args.seed + 1;
    apps.push_back(ftio::workloads::generate_semisynthetic(c, library));
  }
  {
    ftio::workloads::SemiSyntheticConfig c;
    c.tcpu_mean = 11.0;  // (c): heavy desynchronisation
    c.phi = 22.0;
    c.seed = args.seed + 2;
    apps.push_back(ftio::workloads::generate_semisynthetic(c, library));
  }

  ftio::core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.with_metrics = false;

  std::vector<ftio::core::FtioResult> results(apps.size());
  ftio::util::parallel_for(apps.size(), [&](std::size_t i) {
    results[i] = ftio::core::detect(apps[i].trace, opts);
  }, args.threads);

  describe("(a)", apps[0], results[0], "t_cpu = t_io / 4, delta_k = 0");
  describe("(b)", apps[1], results[1], "t_cpu ~ N(11, 22^2) truncated positive");
  describe("(c)", apps[2], results[2], "mean delta_k = 22 s");
  return 0;
}
