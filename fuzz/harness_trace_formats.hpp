#pragma once

#include <cstddef>
#include <cstdint>

namespace ftio::fuzz {

/// Fuzz entry point over the trace-format parsers (trace/formats.cpp).
///
/// The first input byte selects the format (mod 4: jsonl, msgpack,
/// recorder CSV, heatmap CSV — seeds use the readable selector bytes
/// 'J', 'M', 'R', 'H', which map to the same slots); the rest is fed to
/// the parser verbatim. ParseError / InvalidArgument are the documented
/// rejection path for malformed input and count as success — the
/// harness hunts for everything else: crashes, sanitizer reports,
/// contract violations, round-trip breakage (a parsed trace must
/// survive serialise → reparse with every request intact), and, for JSONL
/// and MessagePack, any disagreement between the record decoder and the
/// DOM oracle of fuzz/trace_dom_oracle.hpp, and, for every parsed trace,
/// any difference between bandwidth_signal and the std::sort sweep of
/// fuzz/sweep_oracle.hpp.
///
/// Returns 0 (libFuzzer convention); aborts on a property violation.
int ftio_fuzz_trace_formats(const std::uint8_t* data, std::size_t size);

}  // namespace ftio::fuzz
