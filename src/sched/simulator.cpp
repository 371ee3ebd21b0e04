#include "sched/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "engine/streaming.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ftio::sched {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class JobPhase { kNotStarted, kComputing, kIo, kDone };

struct JobState {
  const JobSpec* spec = nullptr;
  JobPhase phase = JobPhase::kNotStarted;
  int completed_iterations = 0;
  double phase_boundary = 0.0;   ///< when computing ends (if kComputing)
  double io_remaining = 0.0;     ///< bytes left (if kIo)
  double io_issue_time = 0.0;    ///< when the current phase was issued
  double io_rate = 0.0;          ///< current allocation, bytes/s

  // Metrics accumulation.
  double io_seconds = 0.0;
  double compute_seconds = 0.0;
  double finish_time = 0.0;

  // Period knowledge for Set-10.
  double period_hint = 0.0;              ///< 0 = unknown
  double previous_phase_start = -1.0;
  ftio::engine::StreamingSession* predictor = nullptr;
};

/// Weighted max-min water-filling: distributes `capacity` across jobs with
/// the given positive weights, capping each at `cap`. Returns rates.
std::vector<double> water_fill(const std::vector<double>& weights,
                               double capacity, double cap) {
  const std::size_t n = weights.size();
  std::vector<double> rates(n, 0.0);
  std::vector<bool> capped(n, false);
  double remaining = capacity;
  for (std::size_t round = 0; round < n; ++round) {
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!capped[i]) weight_sum += weights[i];
    }
    if (weight_sum <= 0.0 || remaining <= 0.0) break;
    bool any_new_cap = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (capped[i]) continue;
      const double share = remaining * weights[i] / weight_sum;
      if (share >= cap) {
        rates[i] = cap;
        capped[i] = true;
        any_new_cap = true;
      }
    }
    if (!any_new_cap) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!capped[i]) rates[i] = remaining * weights[i] / weight_sum;
      }
      return rates;
    }
    remaining = capacity;
    for (std::size_t i = 0; i < n; ++i) {
      if (capped[i]) remaining -= cap;
    }
  }
  return rates;
}

/// Set index: the decade of the characteristic period (Set-10 groups jobs
/// whose periods share an order of magnitude).
int decade_of(double period) {
  if (period <= 0.0) return 9;  // unknown: lowest priority
  return static_cast<int>(std::floor(std::log10(period)));
}

}  // namespace

SimulationOutcome simulate(const std::vector<JobSpec>& jobs,
                           const SchedulerConfig& config) {
  ftio::util::expect(!jobs.empty(), "simulate: no jobs");
  ftio::util::expect(config.fs_bandwidth > 0.0 &&
                         config.per_job_bandwidth > 0.0,
                     "simulate: bandwidths must be positive");
  ftio::util::expect(config.policy != Policy::kSet10 ||
                         config.period_source != PeriodSource::kNone,
                     "simulate: Set-10 needs a period source");

  ftio::util::Rng rng(config.seed);
  const double alone_rate =
      std::min(config.per_job_bandwidth, config.fs_bandwidth);

  std::vector<JobState> states(jobs.size());
  std::vector<std::unique_ptr<ftio::engine::StreamingSession>> predictors;
  const bool use_ftio = config.period_source == PeriodSource::kFtio ||
                        config.period_source == PeriodSource::kFtioWithError;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    states[i].spec = &jobs[i];
    if (config.period_source == PeriodSource::kClairvoyant) {
      states[i].period_hint = jobs[i].isolation_period;
    }
    if (use_ftio) {
      ftio::engine::StreamingOptions so;
      so.online.base = config.ftio;
      predictors.push_back(
          std::make_unique<ftio::engine::StreamingSession>(so));
      states[i].predictor = predictors.back().get();
    }
  }

  // --- Rate allocation under the configured policy -----------------------
  auto allocate_rates = [&](double /*now*/) {
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < states.size(); ++i) {
      states[i].io_rate = 0.0;
      if (states[i].phase == JobPhase::kIo) pending.push_back(i);
    }
    if (pending.empty()) return;

    std::vector<std::size_t> active;
    std::vector<double> weights;
    if (config.policy == Policy::kFairShare) {
      active = pending;
      weights.assign(active.size(), 1.0);
    } else if (config.policy == Policy::kExclusiveFcfs) {
      std::size_t head = pending.front();
      for (std::size_t i : pending) {
        if (states[i].io_issue_time < states[head].io_issue_time) head = i;
      }
      active = {head};
      weights = {1.0};
    } else {
      // Set-10: FCFS head per decade set; set weight 10^-decade.
      struct Head {
        std::size_t job;
        double issue;
      };
      std::vector<std::pair<int, Head>> heads;
      for (std::size_t i : pending) {
        const int set = decade_of(states[i].period_hint);
        bool found = false;
        for (auto& [s, head] : heads) {
          if (s == set) {
            found = true;
            if (states[i].io_issue_time < head.issue) {
              head = {i, states[i].io_issue_time};
            }
          }
        }
        if (!found) heads.push_back({set, {i, states[i].io_issue_time}});
      }
      for (const auto& [set, head] : heads) {
        active.push_back(head.job);
        weights.push_back(std::pow(10.0, -set));
      }
    }

    const auto rates = water_fill(weights, config.fs_bandwidth,
                                  config.per_job_bandwidth);
    for (std::size_t k = 0; k < active.size(); ++k) {
      states[active[k]].io_rate = rates[k];
    }
  };

  // --- Phase transitions --------------------------------------------------
  auto start_compute = [&](JobState& s, double now) {
    s.phase = JobPhase::kComputing;
    s.phase_boundary = now + s.spec->compute_seconds;
  };

  auto start_io = [&](JobState& s, double now) {
    s.phase = JobPhase::kIo;
    s.io_remaining = s.spec->io_volume;
    s.io_issue_time = now;

    // Track the period knowledge Set-10 consumes.
    if (s.previous_phase_start >= 0.0) {
      const double gap = now - s.previous_phase_start;
      if (s.predictor == nullptr &&
          config.period_source != PeriodSource::kClairvoyant) {
        s.period_hint = gap;  // naive fallback while FTIO has no result
      }
    }
    s.previous_phase_start = now;
  };

  auto finish_io = [&](JobState& s, double now) {
    // Feed FTIO with the completed phase and refresh the prediction.
    if (s.predictor != nullptr) {
      ftio::trace::IoRequest r{0, s.io_issue_time, now,
                               static_cast<std::uint64_t>(s.spec->io_volume),
                               ftio::trace::IoKind::kWrite};
      s.predictor->ingest(std::span<const ftio::trace::IoRequest>(&r, 1));
      const auto prediction = s.predictor->predict();
      if (prediction.found()) {
        double period = prediction.period();
        if (config.period_source == PeriodSource::kFtioWithError) {
          period *= rng.bernoulli(0.5) ? 1.5 : 0.5;
        }
        s.period_hint = period;
      } else if (s.period_hint == 0.0 && s.previous_phase_start >= 0.0) {
        s.period_hint = now - s.io_issue_time + s.spec->compute_seconds;
      }
    }
    ++s.completed_iterations;
    if (s.completed_iterations >= s.spec->iterations) {
      s.phase = JobPhase::kDone;
      s.finish_time = now;
    } else {
      start_compute(s, now);
    }
  };

  // --- Event loop ----------------------------------------------------------
  double now = 0.0;
  while (true) {
    allocate_rates(now);

    double next = kInfinity;
    for (const auto& s : states) {
      switch (s.phase) {
        case JobPhase::kNotStarted:
          next = std::min(next, s.spec->start_offset);
          break;
        case JobPhase::kComputing:
          next = std::min(next, s.phase_boundary);
          break;
        case JobPhase::kIo:
          if (s.io_rate > 0.0) {
            next = std::min(next, now + std::max(s.io_remaining, 0.0) /
                                      s.io_rate);
          }
          break;
        case JobPhase::kDone:
          break;
      }
    }
    if (next == kInfinity) break;  // all done
    const double dt = next - now;

    // Advance progress and accounting over [now, next].
    for (auto& s : states) {
      if (s.phase == JobPhase::kComputing) {
        s.compute_seconds += dt;
      } else if (s.phase == JobPhase::kIo) {
        s.io_seconds += dt;  // waiting in a set queue is I/O time too
        s.io_remaining -= s.io_rate * dt;
      }
    }
    now = next;

    // Fire all due transitions. The I/O completion test is in *time*
    // units: leftover bytes from floating-point accumulation can exceed
    // any absolute byte epsilon for multi-GB volumes, but they always
    // drain in far less than the simulator's time resolution.
    for (auto& s : states) {
      if (s.phase == JobPhase::kNotStarted &&
          s.spec->start_offset <= now + 1e-12) {
        start_compute(s, now);
      } else if (s.phase == JobPhase::kComputing &&
                 s.phase_boundary <= now + 1e-12) {
        start_io(s, now);
      } else if (s.phase == JobPhase::kIo &&
                 (s.io_remaining <= 0.5 ||
                  (s.io_rate > 0.0 &&
                   s.io_remaining / s.io_rate <= 1e-9 * (1.0 + now)))) {
        finish_io(s, now);
      }
    }
  }

  // --- Aggregate metrics -----------------------------------------------
  SimulationOutcome outcome;
  std::vector<double> stretches;
  std::vector<double> slowdowns;
  double total_compute = 0.0;
  double total_node_time = 0.0;
  for (const auto& s : states) {
    JobOutcome jo;
    jo.name = s.spec->name;
    jo.runtime = s.finish_time - s.spec->start_offset;
    jo.io_seconds = s.io_seconds;
    jo.compute_seconds = s.compute_seconds;
    jo.isolation_io = static_cast<double>(s.spec->iterations) *
                      (s.spec->io_volume / alone_rate);
    jo.isolation_runtime = static_cast<double>(s.spec->iterations) *
                               s.spec->compute_seconds +
                           jo.isolation_io;
    stretches.push_back(jo.stretch());
    slowdowns.push_back(jo.io_slowdown());
    total_compute += jo.compute_seconds;
    total_node_time += jo.runtime;
    outcome.makespan = std::max(outcome.makespan, s.finish_time);
    outcome.jobs.push_back(jo);
  }
  outcome.stretch_geomean = ftio::util::geometric_mean(stretches);
  outcome.io_slowdown_geomean = ftio::util::geometric_mean(slowdowns);
  outcome.utilization = total_node_time > 0.0
                            ? total_compute / total_node_time
                            : 0.0;
  return outcome;
}

std::vector<JobSpec> make_set10_workload(double fs_bandwidth,
                                         std::uint64_t seed,
                                         double target_runtime) {
  ftio::util::Rng rng(seed);
  std::vector<JobSpec> jobs;

  // High-frequency app: period 19.2 s, I/O = 6.25% -> 1.2 s of I/O.
  {
    JobSpec j;
    j.name = "high-freq";
    j.isolation_period = 19.2;
    j.compute_seconds = 19.2 * (1.0 - 0.0625);
    j.io_volume = 19.2 * 0.0625 * fs_bandwidth;
    j.iterations = std::max(1, static_cast<int>(target_runtime / 19.2));
    j.start_offset = rng.uniform(0.0, 5.0);
    jobs.push_back(j);
  }
  // 15 low-frequency apps: period 384 s -> 24 s of I/O.
  for (int i = 0; i < 15; ++i) {
    JobSpec j;
    j.name = "low-freq-" + std::to_string(i);
    j.isolation_period = 384.0;
    j.compute_seconds = 384.0 * (1.0 - 0.0625);
    j.io_volume = 384.0 * 0.0625 * fs_bandwidth;
    j.iterations = std::max(1, static_cast<int>(target_runtime / 384.0));
    j.start_offset = rng.uniform(0.0, 384.0);
    jobs.push_back(j);
  }
  return jobs;
}

}  // namespace ftio::sched
