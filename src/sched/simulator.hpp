#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/ftio.hpp"

namespace ftio::sched {

/// One periodic application in the Sec. IV experiment: it alternates a
/// compute phase and an I/O phase (writing `io_volume` bytes), repeated
/// `iterations` times. Derived from IOR in the paper ("designed to
/// include, in isolation, periods of 19.2 s or 384 s, with I/O consuming
/// 6.25% of each period").
struct JobSpec {
  std::string name;
  double compute_seconds = 0.0;  ///< compute part of one iteration
  double io_volume = 0.0;        ///< bytes written per I/O phase
  int iterations = 1;
  double start_offset = 0.0;     ///< submission time
  /// The ideal (isolation) period, known only to the clairvoyant policy.
  double isolation_period = 0.0;
};

/// How the file system arbitrates concurrent I/O.
enum class Policy {
  kFairShare,      ///< "Original": plain max-min sharing, no coordination
  kSet10,          ///< IO-sets heuristic with decade sets (Sec. IV)
  /// One job's I/O at a time, globally, FCFS — the exclusive-access
  /// extreme the IO-sets work contrasts against: no sharing losses, but
  /// high-frequency jobs queue behind long low-frequency phases.
  kExclusiveFcfs,
};

/// Where Set-10 gets each job's period from (Fig. 17's four bars).
enum class PeriodSource {
  kClairvoyant,    ///< ideal isolation periods provided in advance
  kFtio,           ///< online FTIO predictions over the job's own trace
  kFtioWithError,  ///< FTIO predictions randomly scaled by +-50%
  kNone,           ///< no period knowledge (only used with kFairShare)
};

struct SchedulerConfig {
  Policy policy = Policy::kFairShare;
  PeriodSource period_source = PeriodSource::kNone;
  double fs_bandwidth = 10e9;       ///< aggregate PFS bandwidth, bytes/s
  double per_job_bandwidth = 10e9;  ///< injection cap of one job
  /// FTIO evaluation settings for kFtio / kFtioWithError.
  ftio::core::FtioOptions ftio;
  std::uint64_t seed = 1;           ///< error injection randomness
};

/// Per-job outcome with the Sec. IV metrics.
struct JobOutcome {
  std::string name;
  double runtime = 0.0;            ///< finish - start_offset
  double io_seconds = 0.0;         ///< time with an issued, unfinished phase
  double compute_seconds = 0.0;
  double isolation_runtime = 0.0;  ///< analytic, uncontended
  double isolation_io = 0.0;

  /// "The stretch quantifies the overall slowdown factor ... caused by
  /// inter-job file-system interference" (>= 1, lower is better).
  double stretch() const { return runtime / isolation_runtime; }
  /// "the I/O slowdown represents the factor by which its I/O time was
  /// increased" (>= 1, lower is better).
  double io_slowdown() const { return io_seconds / isolation_io; }
};

struct SimulationOutcome {
  std::vector<JobOutcome> jobs;
  /// Geometric means across jobs, as the paper reports per execution.
  double stretch_geomean = 0.0;
  double io_slowdown_geomean = 0.0;
  /// "how much of the node time was spent on computation instead of I/O".
  double utilization = 0.0;
  double makespan = 0.0;
};

/// Fluid-model discrete-event simulation of the shared PFS: at any instant
/// every pending I/O phase receives a policy-determined bandwidth share
/// (weighted max-min water-filling); events are compute completions and
/// I/O completions. With Set-10, jobs are grouped into decade sets by
/// their (policy-source) period; one job per set does I/O at a time and
/// sets share bandwidth with weight 10^-decade (smallest period = highest
/// priority), following IO-sets.
SimulationOutcome simulate(const std::vector<JobSpec>& jobs,
                           const SchedulerConfig& config);

/// The Sec. IV workload: one high-frequency job (period 19.2 s) and 15
/// low-frequency jobs (period 384 s), I/O = 6.25% of each period, sized
/// for `fs_bandwidth`. `seed` jitters the submission offsets per run.
std::vector<JobSpec> make_set10_workload(double fs_bandwidth,
                                         std::uint64_t seed,
                                         double target_runtime = 1920.0);

}  // namespace ftio::sched
