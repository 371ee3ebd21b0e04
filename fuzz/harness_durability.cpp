#include "fuzz/harness_durability.hpp"

#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "durability/checkpoint.hpp"
#include "durability/durability.hpp"
#include "durability/journal.hpp"
#include "engine/streaming.hpp"
#include "fuzz/durability_codec_oracle.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"

namespace ftio::fuzz {

namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_durability: %s\n", what);
  std::abort();
}

/// restore_state over arbitrary bytes: ParseError or a working session.
void fuzz_session_restore(std::span<const std::uint8_t> bytes) {
  ftio::engine::StreamingSession session(durability_session_options());
  try {
    session.restore_state(bytes);
  } catch (const ftio::util::ParseError&) {
    return;  // rejection is the contract
  }
  // Accepted: the image must be stable (serialize -> restore ->
  // serialize is a fixed point) and the session must still work.
  const std::vector<std::uint8_t> image = session.serialize_state();
  ftio::engine::StreamingSession again(durability_session_options());
  try {
    again.restore_state(image);
  } catch (const ftio::util::ParseError&) {
    fail("own serialization rejected after restore");
  }
  if (again.serialize_state() != image) {
    fail("restore/serialize is not a fixed point");
  }
  const ftio::trace::IoRequest poke{0, 1.0, 1.5, 4096,
                                    ftio::trace::IoKind::kWrite};
  session.ingest(std::span<const ftio::trace::IoRequest>(&poke, 1));
  static_cast<void>(session.predict());
}

/// parse_checkpoint over arbitrary bytes: ParseError or a checkpoint
/// whose re-encoding parses back losslessly.
void fuzz_checkpoint_parse(std::span<const std::uint8_t> bytes) {
  ftio::durability::RecoveryStats stats;
  ftio::durability::CheckpointData data;
  try {
    data = ftio::durability::parse_checkpoint(bytes, stats);
  } catch (const ftio::util::ParseError&) {
    return;
  }
  const std::vector<std::uint8_t> encoded =
      ftio::durability::encode_checkpoint(data);
  if (encoded != durability_codec_oracle::encode_checkpoint(data)) {
    fail("checkpoint encoding differs from the copy-based oracle");
  }
  ftio::durability::RecoveryStats restats;
  ftio::durability::CheckpointData reparsed;
  try {
    reparsed = ftio::durability::parse_checkpoint(encoded, restats);
  } catch (const ftio::util::ParseError&) {
    fail("re-encoded checkpoint rejected");
  }
  if (restats.tenant_frames_skipped != 0 ||
      reparsed.tenants.size() != data.tenants.size() ||
      reparsed.floor_seq != data.floor_seq) {
    fail("checkpoint re-encode round trip lost data");
  }
  for (std::size_t i = 0; i < data.tenants.size(); ++i) {
    const auto& a = data.tenants[i];
    const auto& b = reparsed.tenants[i];
    if (a.name != b.name || a.poisoned != b.poisoned ||
        a.last_applied_seq != b.last_applied_seq ||
        a.pending.size() != b.pending.size() ||
        a.has_session != b.has_session ||
        a.session_state != b.session_state) {
      fail("checkpoint tenant snapshot round trip mismatch");
    }
    // The embedded session blob feeds the next decoder down: it too
    // must restore-or-reject.
    if (a.has_session) fuzz_session_restore(a.session_state);
  }
}

/// scan_journal_bytes over arbitrary bytes: never throws, and the
/// decoded prefix re-encodes to a run the scanner reads identically.
void fuzz_journal_scan(std::span<const std::uint8_t> bytes) {
  constexpr std::size_t kMaxRecordBytes = 1u << 20;
  std::vector<ftio::durability::JournalRecord> records;
  const ftio::durability::JournalScan scan =
      ftio::durability::scan_journal_bytes(bytes, kMaxRecordBytes, records);
  if (scan.valid_bytes > bytes.size()) fail("valid_bytes out of range");
  if (scan.clean && scan.records_discarded == 0 &&
      scan.valid_bytes != bytes.size()) {
    fail("clean scan did not consume the input");
  }

  std::vector<std::uint8_t> reencoded;
  for (const auto& record : records) {
    const auto frame = ftio::durability::encode_journal_record(record);
    if (frame != durability_codec_oracle::encode_journal_record(record)) {
      fail("journal record encoding differs from the copy-based oracle");
    }
    reencoded.insert(reencoded.end(), frame.begin(), frame.end());
  }
  std::vector<ftio::durability::JournalRecord> reread;
  const ftio::durability::JournalScan rescan =
      ftio::durability::scan_journal_bytes(reencoded, kMaxRecordBytes,
                                           reread);
  if (!rescan.clean || rescan.records_discarded != 0 ||
      rescan.valid_bytes != reencoded.size() ||
      reread.size() != records.size()) {
    fail("journal re-encode round trip lost records");
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& a = records[i];
    const auto& b = reread[i];
    if (a.type != b.type || a.seq != b.seq || a.tenant != b.tenant ||
        a.requests.size() != b.requests.size() ||
        a.aborted_seq != b.aborted_seq) {
      fail("journal record round trip mismatch");
    }
  }
}

}  // namespace

int ftio_fuzz_durability(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const std::span<const std::uint8_t> payload(data + 1, size - 1);
  switch (data[0] % 3) {
    case 0:
      fuzz_session_restore(payload);
      break;
    case 1:
      fuzz_checkpoint_parse(payload);
      break;
    default:
      fuzz_journal_scan(payload);
      break;
  }
  return 0;
}

}  // namespace ftio::fuzz
