#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/ftio.hpp"
#include "signal/step_function.hpp"
#include "trace/model.hpp"

namespace ftio::engine {

/// One unit of batched analysis work: a non-owning view of either a raw
/// request trace, an already-built bandwidth curve, or a pre-discretised
/// sample vector. Exactly one source is set; the referenced object must
/// outlive the analyze_many call.
struct TraceView {
  const ftio::trace::Trace* trace = nullptr;
  const ftio::signal::StepFunction* bandwidth = nullptr;
  std::span<const double> samples;
  /// Absolute time of samples[0] (sample views only; reporting context).
  double origin = 0.0;

  static TraceView of(const ftio::trace::Trace& t) {
    TraceView v;
    v.trace = &t;
    return v;
  }
  static TraceView of(const ftio::signal::StepFunction& bw) {
    TraceView v;
    v.bandwidth = &bw;
    return v;
  }
  static TraceView of_samples(std::span<const double> s,
                              double origin = 0.0) {
    TraceView v;
    v.samples = s;
    v.origin = origin;
    return v;
  }
};

/// Execution knobs for the batched engine.
struct EngineOptions {
  /// Worker threads for the fan-out (0 = hardware concurrency).
  unsigned threads = 0;
  /// Grow the global FFT plan cache to at least this many plans before
  /// the batch runs (0 = leave the cache capacity unchanged). Useful when
  /// a sweep mixes many distinct window lengths.
  std::size_t plan_cache_capacity = 0;
  /// Pre-build the FFT plans for every view's window length (and the 2N
  /// ACF sizes) on the calling thread, so worker threads start with a
  /// warm cache and never race on constructing the same plan. Trace and
  /// bandwidth views discretise in a first batched pass, so their
  /// lengths are known here too.
  bool warm_plans = true;
};

/// Runs the full FTIO pipeline on every view, fanned across worker
/// threads with util::parallel_for. The batch runs in three passes:
/// (1) windowing — trace views build their bandwidth curve and every
/// curve-backed view selects + discretises its analysis window, so all
/// sample lengths are known up front; (2) grouped transforms — windows
/// of equal length (from any view kind) run their spectra and, when the
/// acf detector is selected, their ACFs through the signal layer's
/// stage-major batched plan execution; (3) per-view finish over the
/// precomputed artefacts. Curve-backed views forward their curve as
/// AnalysisArtifacts::source_curve.
/// Results are index-aligned with `views` and identical to calling
/// analyze_samples / analyze_bandwidth / detect on each view in a loop.
std::vector<ftio::core::FtioResult> analyze_many(
    std::span<const TraceView> views, const ftio::core::FtioOptions& options,
    const EngineOptions& engine = {});

/// Convenience: batch-analyse owned traces.
std::vector<ftio::core::FtioResult> analyze_traces(
    std::span<const ftio::trace::Trace> traces,
    const ftio::core::FtioOptions& options, const EngineOptions& engine = {});

}  // namespace ftio::engine
