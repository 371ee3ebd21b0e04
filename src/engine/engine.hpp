#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/ftio.hpp"
#include "signal/step_function.hpp"
#include "trace/model.hpp"

namespace ftio::engine {

/// One unit of batched analysis work: a non-owning view of either a raw
/// request trace or an already-built bandwidth curve. Exactly one source
/// is set; the referenced object must outlive the analyze_many call.
struct TraceView {
  const ftio::trace::Trace* trace = nullptr;
  const ftio::signal::StepFunction* bandwidth = nullptr;

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
};

/// Execution knobs for the batched engine.
struct EngineOptions {
  /// Worker threads for the fan-out (0 = hardware concurrency).
  unsigned threads = 0;
};

/// Runs the full FTIO pipeline on every view, fanned across worker
/// threads with util::parallel_for: trace views run core::detect and
/// bandwidth views core::analyze_bandwidth. Results are index-aligned
/// with `views` and identical to calling those functions on each view in
/// a loop; the shared FFT plan cache builds each concurrently requested
/// plan once.
/// A view with no source throws InvalidArgument; when several views
/// throw, the lowest index's exception reaches the caller.
std::vector<ftio::core::FtioResult> analyze_many(
    std::span<const TraceView> views, const ftio::core::FtioOptions& options,
    const EngineOptions& engine = {});

/// Convenience: batch-analyse owned traces.
std::vector<ftio::core::FtioResult> analyze_traces(
    std::span<const ftio::trace::Trace> traces,
    const ftio::core::FtioOptions& options, const EngineOptions& engine = {});

}  // namespace ftio::engine
