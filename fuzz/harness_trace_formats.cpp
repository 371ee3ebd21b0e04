#include "fuzz/harness_trace_formats.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/sweep_oracle.hpp"
#include "fuzz/trace_dom_oracle.hpp"
#include "trace/formats.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"

namespace ftio::fuzz {

namespace {

[[noreturn]] void property_failed(const char* format, const char* detail,
                                  const char* property = "round-trip") {
  // abort() rather than an exception: both libFuzzer and the corpus
  // replay driver treat an abnormal exit as the finding signal.
  std::fprintf(stderr, "fuzz_trace_formats: %s %s broke: %s\n", format,
               property, detail);
  std::abort();
}

/// Second property of the JSONL and MessagePack parsers: the record
/// decoder agrees with the DOM oracle (fuzz/trace_dom_oracle.hpp) on
/// accept/reject, ParseStats and trace bits, under both policies.
template <class Difference>
void check_oracle(const char* format, Difference difference) {
  for (const auto policy : {ftio::trace::ParsePolicy::kStrict,
                            ftio::trace::ParsePolicy::kSkipBad}) {
    const std::string diff = difference(policy);
    if (!diff.empty()) property_failed(format, diff.c_str(), "DOM oracle");
  }
}

/// Sweep property of every parsed trace: bandwidth_signal, built on the
/// distribution sort, matches the std::sort sweep of fuzz/sweep_oracle.hpp,
/// and no segment is NaN (every event delta is finite, so the running
/// level can saturate at +inf but never meet inf - inf).
void check_sweep(const char* format, const ftio::trace::Trace& trace) {
  const auto curve = ftio::trace::bandwidth_signal(trace);
  const std::string diff = sweep_oracle::curve_difference(
      curve, sweep_oracle::bandwidth_signal(trace));
  if (!diff.empty()) property_failed(format, diff.c_str(), "sweep oracle");
  for (const double v : curve.values()) {
    if (std::isnan(v)) property_failed(format, "NaN segment", "sweep");
  }
}

bool all_finite(const ftio::trace::Trace& trace) {
  for (const auto& r : trace.requests) {
    if (!std::isfinite(r.start) || !std::isfinite(r.end)) return false;
  }
  return true;
}

/// serialize ∘ parse must be a fixpoint after one canonicalising round:
/// whatever the parser accepted, its serialisation must reparse to a
/// trace that serialises identically. Guarded on finite times — the
/// JSONL serialiser canonicalises non-finite values to null by design.
/// JSONL prints doubles with %.17g and MessagePack stores raw float64,
/// so both are exact; recorder CSV's %.9g re-reads to the same 9
/// significant digits.
template <class Serialize, class Parse>
void check_fixpoint(const char* format, const ftio::trace::Trace& first,
                    Serialize serialize, Parse parse) {
  if (!all_finite(first)) return;
  const auto s1 = serialize(first);
  ftio::trace::Trace second;
  try {
    second = parse(s1);
  } catch (const std::exception& e) {
    property_failed(format, e.what());
  }
  if (second.requests.size() != first.requests.size()) {
    property_failed(format, "request count changed on reparse");
  }
  if (serialize(second) != s1) {
    property_failed(format, "serialisation is not a fixpoint");
  }
}

void fuzz_jsonl(std::string_view text) {
  check_oracle("jsonl", [&](ftio::trace::ParsePolicy policy) {
    return dom_oracle::jsonl_difference(text, policy);
  });
  ftio::trace::Trace trace;
  try {
    trace = ftio::trace::from_jsonl(text);
  } catch (const ftio::util::ParseError&) {
    return;  // documented rejection of malformed input
  } catch (const ftio::util::InvalidArgument&) {
    return;
  }
  check_sweep("jsonl", trace);
  check_fixpoint(
      "jsonl", trace,
      [](const ftio::trace::Trace& t) { return ftio::trace::to_jsonl(t); },
      [](const std::string& s) { return ftio::trace::from_jsonl(s); });
}

void fuzz_msgpack(std::span<const std::uint8_t> bytes) {
  check_oracle("msgpack", [&](ftio::trace::ParsePolicy policy) {
    return dom_oracle::msgpack_difference(bytes, policy);
  });
  ftio::trace::Trace trace;
  try {
    trace = ftio::trace::from_msgpack(bytes);
  } catch (const ftio::util::ParseError&) {
    return;
  } catch (const ftio::util::InvalidArgument&) {
    return;
  }
  check_sweep("msgpack", trace);
  check_fixpoint(
      "msgpack", trace,
      [](const ftio::trace::Trace& t) { return ftio::trace::to_msgpack(t); },
      [](const std::vector<std::uint8_t>& s) {
        return ftio::trace::from_msgpack(s);
      });
}

void fuzz_recorder_csv(std::string_view text) {
  ftio::trace::Trace trace;
  try {
    trace = ftio::trace::from_recorder_csv(text);
  } catch (const ftio::util::ParseError&) {
    return;
  } catch (const ftio::util::InvalidArgument&) {
    return;
  }
  check_sweep("recorder-csv", trace);
  check_fixpoint(
      "recorder-csv", trace,
      [](const ftio::trace::Trace& t) {
        return ftio::trace::to_recorder_csv(t);
      },
      [](const std::string& s) { return ftio::trace::from_recorder_csv(s); });
}

void fuzz_heatmap_csv(std::string_view text) {
  ftio::trace::Heatmap heatmap;
  try {
    heatmap = ftio::trace::from_heatmap_csv(text);
  } catch (const ftio::util::ParseError&) {
    return;
  } catch (const ftio::util::InvalidArgument&) {
    return;
  }
  // Bin edges are recomputed from start + i * width on serialisation, so
  // byte-exact fixpointing is out of reach (%.9g of an accumulated sum);
  // the structural core must survive instead.
  if (!std::isfinite(heatmap.start_time) || !std::isfinite(heatmap.bin_width)) {
    return;
  }
  const auto s1 = ftio::trace::to_heatmap_csv(heatmap);
  ftio::trace::Heatmap second;
  try {
    second = ftio::trace::from_heatmap_csv(s1);
  } catch (const std::exception& e) {
    property_failed("heatmap-csv", e.what());
  }
  if (second.bytes_per_bin.size() != heatmap.bytes_per_bin.size()) {
    property_failed("heatmap-csv", "bin count changed on reparse");
  }
  if (second.app != heatmap.app) {
    property_failed("heatmap-csv", "app name changed on reparse");
  }
  const double width_error =
      std::abs(second.bin_width - heatmap.bin_width);
  if (width_error > 1e-6 * std::abs(heatmap.bin_width)) {
    property_failed("heatmap-csv", "bin width drifted on reparse");
  }
  // The derived curve must stay constructible on whatever the parser let
  // through (empty or degenerate heatmaps yield an empty curve).
  static_cast<void>(heatmap.bandwidth());
}

}  // namespace

int ftio_fuzz_trace_formats(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const std::uint8_t selector = data[0];
  const auto* payload = data + 1;
  const std::size_t payload_size = size - 1;
  const std::string_view text(reinterpret_cast<const char*>(payload),
                              payload_size);
  // Readable selector bytes for the seed corpus; every other byte value
  // still lands on a parser so mutated selectors stay productive.
  switch (selector) {
    case 'J':
      fuzz_jsonl(text);
      return 0;
    case 'M':
      fuzz_msgpack({payload, payload_size});
      return 0;
    case 'R':
      fuzz_recorder_csv(text);
      return 0;
    case 'H':
      fuzz_heatmap_csv(text);
      return 0;
    default:
      break;
  }
  switch (selector % 4) {
    case 0:
      fuzz_jsonl(text);
      break;
    case 1:
      fuzz_msgpack({payload, payload_size});
      break;
    case 2:
      fuzz_recorder_csv(text);
      break;
    default:
      fuzz_heatmap_csv(text);
      break;
  }
  return 0;
}

}  // namespace ftio::fuzz
