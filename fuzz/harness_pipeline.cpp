#include "fuzz/harness_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "core/ftio.hpp"
#include "engine/streaming.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"

namespace ftio::fuzz {

namespace {

/// Little-endian byte reader over the fuzz input; reads past the end
/// yield zeros, so every input length decodes to a complete program.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { return pos_ < size_ ? data_[pos_++] : 0; }
  std::uint16_t u16() {
    return static_cast<std::uint16_t>(u8() | (u8() << 8));
  }
  bool done() const { return pos_ >= size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Decodes a bounded, finite event stream: gaps in [0, 2.55] s,
/// durations in (0, 1.27] s, byte counts in [1, 65536]. Every field the
/// discretise → detect pipeline consumes stays well inside the ranges
/// its API documents, so any abort downstream is a genuine invariant
/// violation, not an input-validation finding.
ftio::trace::Trace decode_trace(ByteReader& reader, std::size_t max_requests) {
  ftio::trace::Trace trace;
  trace.app = "fuzz";
  double clock = 0.0;
  while (!reader.done() && trace.requests.size() < max_requests) {
    ftio::trace::IoRequest r;
    clock += static_cast<double>(reader.u8()) / 100.0;
    r.start = clock;
    r.end = clock + (1.0 + static_cast<double>(reader.u8() % 127)) / 100.0;
    r.bytes = 1u + reader.u16();
    r.rank = reader.u8() % 8;
    r.kind = (reader.u8() & 1) != 0 ? ftio::trace::IoKind::kRead
                                    : ftio::trace::IoKind::kWrite;
    trace.requests.push_back(r);
    trace.rank_count = std::max(trace.rank_count, r.rank + 1);
  }
  return trace;
}

ftio::core::FtioOptions decode_options(ByteReader& reader) {
  ftio::core::FtioOptions options;
  options.sampling_frequency = 1.0 + static_cast<double>(reader.u8() % 50);
  options.with_autocorrelation = (reader.u8() & 1) != 0;
  options.sampling_mode = (reader.u8() & 1) != 0
                              ? ftio::signal::SamplingMode::kBinAverage
                              : ftio::signal::SamplingMode::kPointSample;
  // Reserved byte: still consumed so the committed corpus seeds decode
  // to the same programs.
  static_cast<void>(reader.u8());
  return options;
}

void run_offline(const ftio::trace::Trace& trace,
                 const ftio::core::FtioOptions& options) {
  ftio::core::FtioResult result;
  try {
    result = ftio::core::detect(trace, options);
  } catch (const ftio::util::InvalidArgument&) {
    return;  // documented rejection (e.g. window shorter than a sample)
  }
  // Cross-checks mirroring the FTIO_CONTRACT layer, live in every build
  // mode so the Release fuzz leg still validates results.
  if (!std::isfinite(result.refined_confidence) ||
      result.refined_confidence < 0.0 || result.refined_confidence > 1.0) {
    std::fprintf(stderr, "fuzz_pipeline: refined confidence out of range\n");
    std::abort();
  }
  if (result.fused.found() &&
      !(result.fused.period > 0.0 && std::isfinite(result.fused.period))) {
    std::fprintf(stderr, "fuzz_pipeline: fused period not positive finite\n");
    std::abort();
  }
}

void run_streaming(const ftio::trace::Trace& trace,
                   const ftio::core::FtioOptions& base, ByteReader& reader) {
  ftio::engine::StreamingOptions options;
  options.online.base = base;
  const std::uint8_t strategy = reader.u8() % 3;
  options.online.strategy =
      strategy == 0   ? ftio::core::WindowStrategy::kGrowing
      : strategy == 1 ? ftio::core::WindowStrategy::kAdaptive
                      : ftio::core::WindowStrategy::kFixedLength;
  options.online.fixed_window = 1.0 + static_cast<double>(reader.u8() % 60);
  options.online.auto_sampling_frequency = (reader.u8() & 1) != 0;
  options.compaction.enabled = (reader.u8() & 1) != 0;
  options.triage.enabled = (reader.u8() & 1) != 0;
  options.triage.warmup_analyses = 1u + reader.u8() % 4;
  ftio::engine::StreamingSession session(options);

  const std::size_t chunk = 1u + reader.u8() % 16;
  std::size_t fed = 0;
  while (fed < trace.requests.size()) {
    const std::size_t n = std::min(chunk, trace.requests.size() - fed);
    session.ingest(std::span<const ftio::trace::IoRequest>(
        trace.requests.data() + fed, n));
    fed += n;
    try {
      static_cast<void>(session.predict());
    } catch (const ftio::util::InvalidArgument&) {
      // Documented: e.g. the ingested span was filtered empty, or the
      // current window holds less than one sample.
    }
  }
  static_cast<void>(session.merged_intervals());
  static_cast<void>(session.memory_bytes());
}

}  // namespace

int ftio_fuzz_pipeline(const std::uint8_t* data, std::size_t size) {
  ByteReader reader(data, size);
  const ftio::core::FtioOptions options = decode_options(reader);
  // A few hundred events keeps one input under ~10 ms, which is what
  // lets the smoke leg's fixed time budget cover real path diversity.
  const ftio::trace::Trace trace = decode_trace(reader, 256);
  if (trace.requests.empty()) return 0;

  ByteReader tail(data, size);  // reuse the prefix for streaming knobs
  run_offline(trace, options);
  run_streaming(trace, options, tail);
  return 0;
}

}  // namespace ftio::fuzz
