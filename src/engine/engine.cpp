#include "engine/engine.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "core/detectors.hpp"
#include "signal/autocorrelation.hpp"
#include "signal/fft.hpp"
#include "signal/plan.hpp"
#include "signal/spectrum.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace ftio::engine {

namespace {

/// Per-view working state of one analyze_many batch: the resolved source
/// curve (owned when built from a trace view), the selected analysis
/// window, and the discretised samples every later pass works from.
struct ViewWork {
  const ftio::signal::StepFunction* curve = nullptr;
  ftio::signal::StepFunction owned_curve;
  ftio::core::AnalysisWindow window;
  std::vector<double> buffer;
  std::span<const double> samples;
  double origin = 0.0;
  bool curve_backed = false;
};

/// Pre-builds the plans the batch will need: the real-input tables for
/// the rfft at each window length (what compute_spectrum actually runs)
/// and the complex plan for the ACF convolution size next_pow2(2N).
void warm_plan(std::size_t n, bool with_acf) {
  ftio::signal::get_plan(n)->prepare(/*for_real_input=*/true);
  if (with_acf) {
    // The ACF runs the packed real path at the power-of-two convolution
    // size, so its half-size sub-plan and unpack twiddles are the lazy
    // state to pre-build.
    ftio::signal::get_plan(ftio::signal::next_power_of_two(2 * n))
        ->prepare(/*for_real_input=*/true);
  }
}

void warm_plans_for(std::span<const ViewWork> work, bool with_acf) {
  if (work.size() == 1) {
    if (!work.front().samples.empty()) {
      warm_plan(work.front().samples.size(), with_acf);
    }
    return;
  }
  std::vector<std::size_t> sizes;
  sizes.reserve(work.size());
  for (const auto& w : work) {
    if (!w.samples.empty()) sizes.push_back(w.samples.size());
  }
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  for (std::size_t n : sizes) warm_plan(n, with_acf);
}

}  // namespace

std::vector<ftio::core::FtioResult> analyze_many(
    std::span<const TraceView> views, const ftio::core::FtioOptions& options,
    const EngineOptions& engine) {
  std::vector<ftio::core::FtioResult> results(views.size());
  if (views.empty()) return results;

  if (engine.plan_cache_capacity > 0 &&
      ftio::signal::plan_cache().capacity() < engine.plan_cache_capacity) {
    ftio::signal::plan_cache().set_capacity(engine.plan_cache_capacity);
  }

  // Pass 1 — windowing: trace views build their bandwidth curve (the
  // exact detect() preamble), and every curve-backed view selects and
  // discretises its analysis window. All window lengths are therefore
  // known before the transform stage groups them, so equal-length
  // windows batch regardless of which view kind they came from (the
  // seed engine only discovered sample-view lengths up front).
  std::vector<ViewWork> work(views.size());
  ftio::util::parallel_for(
      views.size(),
      [&](std::size_t i) {
        ViewWork& w = work[i];
        const TraceView& v = views[i];
        if (v.trace != nullptr) {
          ftio::trace::BandwidthOptions bw;
          bw.kind = options.kind;
          // Window clipping happens below so that the noise threshold
          // and metrics see the same curve the spectrum saw.
          w.owned_curve = ftio::trace::bandwidth_signal(*v.trace, bw);
          ftio::util::expect(!w.owned_curve.empty(),
                             "detect: trace has no I/O requests");
          w.curve = &w.owned_curve;
        } else if (v.bandwidth != nullptr) {
          w.curve = v.bandwidth;
        } else {
          ftio::util::expect(!v.samples.empty(),
                             "analyze_many: view without a source");
          w.samples = v.samples;
          w.origin = v.origin;
          return;
        }
        w.curve_backed = true;
        w.window = ftio::core::select_analysis_window(*w.curve, options);
        ftio::core::discretize_window(*w.curve, w.window, options, 0,
                                      w.buffer);
        w.samples = w.buffer;
        w.origin = w.window.start;
      },
      engine.threads);

  // The raw ACF is the one batched artefact beyond the spectrum: only
  // the acf detector reads it, so it is computed only when selected.
  const bool want_acf = ftio::core::selections_include(
      ftio::core::effective_selections(options.detectors,
                                       options.with_autocorrelation),
      ftio::core::detector_names::kAcf);

  if (engine.warm_plans) warm_plans_for(work, want_acf);

  // Pass 2 — grouped transforms: windows of equal length run their
  // spectra (and raw ACFs) through the signal layer's stage-major
  // batched plan execution, parallel over cache-resident batch tiles
  // rather than whole signals. Batched rows are bit-identical to
  // per-signal transforms, so results stay identical to looped
  // analyze_samples calls.
  // Single-view batches (the streaming session's per-flush call) have
  // nothing to group, so the map and the artefact stores stay unbuilt —
  // their allocations are pure fixed overhead at views.size() == 1.
  std::vector<ftio::signal::Spectrum> spectra;
  std::vector<std::vector<double>> acfs;
  std::vector<char> prepared;
  std::map<std::size_t, std::vector<std::size_t>> groups;
  if (views.size() >= 2) {
    for (std::size_t i = 0; i < work.size(); ++i) {
      groups[work[i].samples.size()].push_back(i);
    }
  }
  for (const auto& [n, idx] : groups) {
    if (idx.size() < 2) continue;
    if (prepared.empty()) {
      spectra.resize(views.size());
      acfs.resize(views.size());
      prepared.assign(views.size(), 0);
    }
    std::vector<std::span<const double>> windows;
    windows.reserve(idx.size());
    for (std::size_t i : idx) windows.push_back(work[i].samples);
    auto group_spectra = ftio::signal::compute_spectra(
        windows, options.sampling_frequency, engine.threads);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      spectra[idx[j]] = std::move(group_spectra[j]);
    }
    if (want_acf && n >= 3) {
      auto group_acfs =
          ftio::signal::autocorrelation_many(windows, engine.threads);
      for (std::size_t j = 0; j < idx.size(); ++j) {
        acfs[idx[j]] = std::move(group_acfs[j]);
      }
    }
    for (std::size_t i : idx) prepared[i] = 1;
  }

  // Pass 3 — finish the pipeline per view over the precomputed
  // artefacts, then the bandwidth-derived result fields for curve-backed
  // views (the exact analyze_bandwidth / detect tail).
  ftio::util::parallel_for(
      views.size(),
      [&](std::size_t i) {
        ViewWork& w = work[i];
        ftio::core::AnalysisArtifacts artifacts;
        artifacts.source_curve = w.curve;
        if (!prepared.empty() && prepared[i]) {
          if (!acfs[i].empty()) artifacts.acf = &acfs[i];
          results[i] = ftio::core::analyze_samples_prepared(
              w.samples, options, w.origin, std::move(spectra[i]),
              artifacts);
        } else {
          results[i] = ftio::core::analyze_samples(w.samples, options,
                                                   w.origin, artifacts);
        }
        if (w.curve_backed) {
          ftio::core::finish_bandwidth_result(*w.curve, w.window, w.samples,
                                              options, results[i]);
        }
      },
      engine.threads);
  return results;
}

std::vector<ftio::core::FtioResult> analyze_traces(
    std::span<const ftio::trace::Trace> traces,
    const ftio::core::FtioOptions& options, const EngineOptions& engine) {
  std::vector<TraceView> views;
  views.reserve(traces.size());
  for (const auto& t : traces) views.push_back(TraceView::of(t));
  return analyze_many(views, options, engine);
}

}  // namespace ftio::engine
