#include "engine/engine.hpp"

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace ftio::engine {

std::vector<ftio::core::FtioResult> analyze_many(
    std::span<const TraceView> views, const ftio::core::FtioOptions& options,
    const EngineOptions& engine) {
  std::vector<ftio::core::FtioResult> results(views.size());
  ftio::util::parallel_for(
      views.size(),
      [&](std::size_t i) {
        const TraceView& v = views[i];
        if (v.trace != nullptr) {
          results[i] = ftio::core::detect(*v.trace, options);
        } else {
          ftio::util::expect(v.bandwidth != nullptr,
                             "analyze_many: view without a source");
          results[i] = ftio::core::analyze_bandwidth(*v.bandwidth, options);
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
