#pragma once

#include <cstddef>
#include <cstdint>

#include "engine/streaming.hpp"

namespace ftio::fuzz {

/// The session posture target 0 restores into: the stateful tiers on, so
/// the decoder walks every section of the format. The committed
/// `seed_session_valid` seed restores under it (util_durability_io_test).
inline ftio::engine::StreamingOptions durability_session_options() {
  ftio::engine::StreamingOptions options;
  options.online.base.sampling_frequency = 2.0;
  options.online.base.with_metrics = false;
  options.compaction.enabled = true;
  options.compaction.max_history = 8;
  options.triage.enabled = true;
  return options;
}

/// Fuzz entry point over the durability decoders — every parser that
/// crash recovery feeds with bytes it must assume are damaged.
///
/// The first input byte selects the target, the rest is the payload:
///   0  engine::StreamingSession::restore_state — arbitrary bytes either
///      restore a session or throw ParseError; a successful restore must
///      re-serialize to a stable image and keep ingesting.
///   1  durability::parse_checkpoint — recover-or-reject per frame: a
///      parsed checkpoint re-encodes and re-parses losslessly, and every
///      embedded session blob again restores-or-rejects.
///   2  durability::scan_journal_bytes — never throws at all; decoded
///      records re-encode to a byte run the scanner reads back
///      identically (the torn-tail truncation point is a pure function
///      of the bytes).
///
/// Targets 1 and 2 also require every re-encoding to equal, byte for
/// byte, the copy-based encoders of fuzz/durability_codec_oracle.hpp.
///
/// ParseError is the contract, so it is caught; any other escape, a
/// crash, or a violated round-trip property is a finding (abort).
///
/// Returns 0 (libFuzzer convention).
int ftio_fuzz_durability(const std::uint8_t* data, std::size_t size);

}  // namespace ftio::fuzz
