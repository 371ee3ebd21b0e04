#pragma once

// Input generation of the three workloads. Everything is a pure function
// of the benchmark seed: the program under test only ever sees the
// generated traces, serialised bytes, and flush chunks.

#include <cstddef>
#include <cstdint>
#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/ftio.hpp"
#include "trace/formats.hpp"
#include "trace/model.hpp"
#include "workloads/apps.hpp"
#include "workloads/ior.hpp"
#include "workloads/phase_library.hpp"
#include "workloads/semisynthetic.hpp"

namespace perfbench {

/// Requests [begin, end) of a start-sorted trace that form one I/O phase:
/// a maximal run in which no idle gap reaches the split threshold.
struct Phase {
  std::size_t begin = 0;
  std::size_t end = 0;
  double start = 0.0;      ///< first request start
  double last_end = 0.0;   ///< latest request end (the flush time)
};

/// Idle time that separates two phases, in seconds.
inline constexpr double kPhaseSplitIdle = 1.0;

/// Splits a start-sorted request list at every idle gap of at least
/// kPhaseSplitIdle seconds.
inline std::vector<Phase> split_phases(
    const std::vector<ftio::trace::IoRequest>& requests) {
  std::vector<Phase> phases;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& r = requests[i];
    if (phases.empty() || r.start - phases.back().last_end >= kPhaseSplitIdle) {
      phases.push_back({i, i, r.start, r.end});
    }
    Phase& p = phases.back();
    p.end = i + 1;
    p.last_end = std::max(p.last_end, r.end);
  }
  return phases;
}

/// Ground truth of the app generators: the mean start-to-start gap of
/// the phases the benchmark splits on.
inline double mean_phase_gap(const std::vector<Phase>& phases) {
  if (phases.size() < 2) return 0.0;
  return (phases.back().start - phases.front().start) /
         static_cast<double>(phases.size() - 1);
}

/// |T_d - T| / T, with a miss (no period, or a non-positive one)
/// counting as 1.0 — the bench/semisweep.hpp convention.
inline double period_error(std::optional<double> frequency, double truth) {
  if (!frequency || *frequency <= 0.0 || truth <= 0.0) return 1.0;
  return std::abs(1.0 / *frequency - truth) / truth;
}

// ---------------------------------------------------------------------------
// offline_corpus
// ---------------------------------------------------------------------------

/// One serialised trace of the offline corpus.
struct CorpusEntry {
  std::string name;
  bool msgpack = false;
  std::string jsonl;                  ///< set when !msgpack
  std::vector<std::uint8_t> packed;   ///< set when msgpack
  ftio::core::FtioOptions options;
  double true_period = 0.0;
  std::size_t requests = 0;

  std::size_t encoded_bytes() const {
    return msgpack ? packed.size() : jsonl.size();
  }
  ftio::trace::Trace parse() const {
    return msgpack ? ftio::trace::from_msgpack(packed)
                   : ftio::trace::from_jsonl(jsonl);
  }
};

/// The 19-trace corpus: 16 semi-synthetic apps from the fig08 grid
/// (tcpu_sigma x phi x 2 seeds, fs = 1 Hz), then LAMMPS and HACC-IO at
/// 3072 ranks and IOR fig2 at 1024 ranks (fs = 10 Hz). Encodings
/// alternate JSONL / MessagePack and the seed shuffles the order.
///
/// Every generator seed is fixed, like the paper's fixed fig08 grid, and
/// the benchmark seed only shuffles the order of a pass. Detection on
/// this corpus is close to a coin flip for some apps: with seeded
/// semi-synthetic apps period_error_mean spread ~30% between seeds, and
/// with seeded LAMMPS and IOR jitter one trace in three seeds flipped
/// between hit and miss (a 14% step), more than any bound can absorb.
inline std::vector<CorpusEntry> make_corpus(std::uint64_t seed) {
  namespace wl = ftio::workloads;
  std::vector<CorpusEntry> corpus;
  auto add = [&](std::string name, ftio::trace::Trace trace, double fs,
                 double truth) {
    CorpusEntry e;
    e.name = std::move(name);
    e.msgpack = corpus.size() % 2 == 1;
    if (e.msgpack) {
      e.packed = ftio::trace::to_msgpack(trace);
    } else {
      e.jsonl = ftio::trace::to_jsonl(trace);
    }
    e.options.sampling_frequency = fs;
    e.true_period = truth;
    e.requests = trace.requests.size();
    corpus.push_back(std::move(e));
  };

  const auto library = wl::make_phase_library();
  std::uint64_t salt = 0;
  for (double sigma : {0.0, 5.5, 11.0, 22.0}) {
    for (double phi : {0.0, 5.5}) {
      for (int rep = 0; rep < 2; ++rep) {
        wl::SemiSyntheticConfig config;
        config.tcpu_sigma = sigma;
        config.phi = phi;
        config.seed = mix_seed(0, salt++);
        wl::SemiSyntheticApp app = wl::generate_semisynthetic(config, library);
        add("semi-sigma" + std::to_string(static_cast<int>(sigma * 10)) +
                "-phi" + std::to_string(static_cast<int>(phi * 10)) + "-" +
                std::to_string(rep),
            std::move(app.trace), 1.0, app.mean_period);
      }
    }
  }

  auto add_app = [&](std::string name, ftio::trace::Trace trace) {
    trace.sort_by_start();
    const double truth = mean_phase_gap(split_phases(trace.requests));
    add(std::move(name), std::move(trace), 10.0, truth);
  };
  wl::LammpsConfig lammps;
  lammps.seed = mix_seed(0, salt++);
  add_app("lammps-3072", wl::generate_lammps_trace(lammps));
  wl::HaccIoConfig hacc;
  hacc.seed = mix_seed(0, salt++);
  add_app("hacc-io-3072", wl::generate_haccio_trace(hacc));
  wl::IorConfig ior = wl::ior_fig2_preset();
  ior.ranks = 1024;
  ior.seed = mix_seed(0, salt++);
  add_app("ior-fig2-1024", wl::generate_ior_trace(ior));
  std::shuffle(corpus.begin(), corpus.end(), std::mt19937_64(seed));
  return corpus;
}

// ---------------------------------------------------------------------------
// online_steady / online_durable
// ---------------------------------------------------------------------------

/// One tenant's base trace, split into per-phase flushes. The stream
/// replays it forever, shifted by `repeat_shift` per repetition so the
/// period carries across the seam.
struct Tenant {
  std::string name;
  std::vector<ftio::trace::IoRequest> requests;  ///< start-sorted, offset
  std::vector<Phase> phases;
  double true_period = 0.0;
  double repeat_shift = 0.0;
};

/// 64 tenants: 32 semi-synthetic (40 iterations, the given tcpu_sigma),
/// 16 LAMMPS and 16 HACC-IO at 256 ranks. Every tenant's trace starts at
/// its own offset in [0, 30) s so the tenants do not flush in lockstep.
///
/// The benchmark seed drives the semi-synthetic generators. The start
/// offsets and the LAMMPS jitter are fixed per tenant: seeding them too
/// made online_steady's period_error_mean spread ~12% between seeds.
inline std::vector<Tenant> make_tenants(std::uint64_t seed, double tcpu_sigma) {
  namespace wl = ftio::workloads;
  const auto library = wl::make_phase_library();
  std::vector<Tenant> tenants;
  auto add = [&](std::string name, ftio::trace::Trace trace,
                 std::optional<double> truth, std::uint64_t salt) {
    Tenant t;
    t.name = std::move(name);
    trace.sort_by_start();
    const double offset =
        30.0 * static_cast<double>(mix_seed(0, 1000 + salt) >> 11) * 0x1.0p-53;
    for (auto& r : trace.requests) {
      r.start += offset;
      r.end += offset;
    }
    t.requests = std::move(trace.requests);
    t.phases = split_phases(t.requests);
    t.true_period = truth.value_or(mean_phase_gap(t.phases));
    t.repeat_shift =
        t.phases.back().start - t.phases.front().start + t.true_period;
    tenants.push_back(std::move(t));
  };
  for (std::uint64_t i = 0; i < 32; ++i) {
    wl::SemiSyntheticConfig config;
    config.iterations = 40;
    config.tcpu_sigma = tcpu_sigma;
    config.seed = mix_seed(seed, i);
    wl::SemiSyntheticApp app = wl::generate_semisynthetic(config, library);
    add("semi-" + std::to_string(i), std::move(app.trace), app.mean_period, i);
  }
  for (std::uint64_t i = 32; i < 48; ++i) {
    wl::LammpsConfig config;
    config.ranks = 256;
    config.seed = mix_seed(0, i);
    add("lammps-" + std::to_string(i), wl::generate_lammps_trace(config),
        std::nullopt, i);
  }
  for (std::uint64_t i = 48; i < 64; ++i) {
    wl::HaccIoConfig config;
    config.ranks = 256;
    add("hacc-io-" + std::to_string(i), wl::generate_haccio_trace(config),
        std::nullopt, i);
  }
  return tenants;
}

/// One flush of the stream: a tenant's phase, shifted into its
/// repetition.
struct StreamFlush {
  std::size_t tenant = 0;
  std::vector<ftio::trace::IoRequest> requests;
};

/// The endless time-ordered flush stream over all tenants: flushes are
/// emitted in order of their phase end time.
class FlushStream {
 public:
  explicit FlushStream(const std::vector<Tenant>& tenants) : tenants_(tenants) {
    for (std::size_t i = 0; i < tenants_.size(); ++i) push({i, 0, 0});
  }

  StreamFlush next() {
    const Cursor c = queue_.top().cursor;
    queue_.pop();
    const Tenant& t = tenants_[c.tenant];
    const Phase& p = t.phases[c.phase];
    const double shift = t.repeat_shift * static_cast<double>(c.repetition);
    StreamFlush flush;
    flush.tenant = c.tenant;
    flush.requests.assign(t.requests.begin() + static_cast<std::ptrdiff_t>(p.begin),
                          t.requests.begin() + static_cast<std::ptrdiff_t>(p.end));
    for (auto& r : flush.requests) {
      r.start += shift;
      r.end += shift;
    }
    Cursor following = c;
    if (++following.phase == t.phases.size()) {
      following.phase = 0;
      ++following.repetition;
    }
    push(following);
    return flush;
  }

 private:
  struct Cursor {
    std::size_t tenant = 0;
    std::size_t repetition = 0;
    std::size_t phase = 0;
  };
  struct Entry {
    double time = 0.0;
    Cursor cursor;
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return cursor.tenant > o.cursor.tenant;
    }
  };
  void push(const Cursor& c) {
    const Tenant& t = tenants_[c.tenant];
    const double time = t.phases[c.phase].last_end +
                        t.repeat_shift * static_cast<double>(c.repetition);
    queue_.push({time, c});
  }

  const std::vector<Tenant>& tenants_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
};

}  // namespace perfbench
