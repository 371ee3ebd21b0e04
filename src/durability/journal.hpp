#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "durability/durability.hpp"
#include "trace/model.hpp"
#include "util/binio.hpp"

namespace ftio::durability {

/// One write-ahead journal record. Flush records carry the requests of
/// one admitted flush; abort records compensate a flush whose sequence
/// was journaled but which the mailbox then rejected (queue full /
/// stopped) — replay must not apply it.
enum class JournalRecordType : std::uint8_t { kFlush = 1, kAbort = 2 };

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kFlush;
  std::uint64_t seq = 0;
  std::string tenant;
  std::vector<ftio::trace::IoRequest> requests;  ///< kFlush only
  /// kAbort only: the sequence of the journaled flush being compensated.
  std::uint64_t aborted_seq = 0;
};

/// Encodes one record with its frame: [u32 payload_len][u32 crc32c]
/// [payload]. The CRC covers the payload only; the length prefix is
/// validated against the remaining bytes and max_record_bytes on scan.
/// JournalWriter::append writes the same bytes without building a
/// JournalRecord first.
std::vector<std::uint8_t> encode_journal_record(const JournalRecord& record);

/// Result of scanning a contiguous journal byte range.
struct JournalScan {
  /// Bytes of the leading run of valid frames — the truncation point
  /// for a torn tail.
  std::size_t valid_bytes = 0;
  /// Structurally complete frames whose CRC or payload decode failed
  /// (scanning stops at the first one — frames cannot be resynced).
  std::size_t records_discarded = 0;
  /// True when the range ended exactly at a frame boundary.
  bool clean = true;
};

/// Decodes the leading run of valid frames from `bytes` into `out`,
/// stopping at the first torn (incomplete) or corrupt frame. Arbitrary
/// input recovers-or-rejects: no crash, and no allocation beyond what
/// the bytes present can justify (fuzzed by fuzz_durability).
JournalScan scan_journal_bytes(std::span<const std::uint8_t> bytes,
                               std::size_t max_record_bytes,
                               std::vector<JournalRecord>& out);

/// Append-only writer over rotated segment files
/// (`<dir>/seg-<firstseq>.wal`). Not thread-safe: the owning shard
/// serialises appends (they must interleave with mailbox pushes in
/// admission order anyway). Throws util::IoError when the device fails;
/// the caller then refuses the flush (nothing was acknowledged) and a
/// partially written frame is truncated as a torn tail on recovery.
class JournalWriter {
 public:
  /// Opens (creating the directory if needed) positioned at `next_seq`.
  /// Appends resume into a fresh segment — recovery already truncated
  /// the previous tail, and a fresh segment keeps the rotate/truncate
  /// arithmetic trivially correct.
  JournalWriter(std::filesystem::path directory, DurabilityOptions options,
                std::uint64_t next_seq);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one record, assigning it the next sequence number, and
  /// applies the fsync policy. Returns the assigned sequence.
  /// `aborted_seq` is meaningful for kAbort records only. The frame is
  /// encoded straight from `requests` into a buffer the writer reuses.
  /// A record whose payload exceeds options.max_record_bytes throws
  /// util::InvalidArgument before anything is written: no sequence is
  /// used and the segment stays open.
  std::uint64_t append(JournalRecordType type, std::string_view tenant,
                       std::span<const ftio::trace::IoRequest> requests,
                       std::uint64_t aborted_seq = 0);

  /// fsyncs the current segment regardless of policy.
  void sync();

  /// The segment appends currently go to: the one truncate_journal must
  /// keep. After a rotation it names the just-closed segment until the
  /// next append opens a new one (keeping it is harmless).
  [[nodiscard]] std::filesystem::path segment_path() const {
    return segment_path_;
  }
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  [[nodiscard]] std::size_t rotations() const { return rotations_; }

 private:
  void open_segment();
  void close_segment();

  std::filesystem::path directory_;
  DurabilityOptions options_;
  std::uint64_t next_seq_;
  int fd_ = -1;
  std::filesystem::path segment_path_;
  std::size_t segment_bytes_ = 0;
  std::size_t unsynced_records_ = 0;
  std::size_t rotations_ = 0;
  ftio::util::BinWriter frame_;  ///< reused encode buffer, one frame
};

/// Deletes every segment under `directory` all of whose records have
/// seq <= floor_seq (a checkpoint on disk made them redundant), except
/// `open_segment`. Needs no writer lock: the caller reads
/// JournalWriter::segment_path under its lock and lists and unlinks
/// here without it. A segment opened after that read starts beyond
/// every record the floor covers (the floor lies below the writer's
/// next sequence), so it is never deleted here. Best-effort: IO errors
/// are swallowed — a leftover segment only costs disk.
void truncate_journal(const std::filesystem::path& directory,
                      std::uint64_t floor_seq,
                      const std::filesystem::path& open_segment);

/// Everything journal recovery hands back to the shard.
struct JournalRecovery {
  std::vector<JournalRecord> records;  ///< valid records, append order
  std::uint64_t max_seq = 0;           ///< highest sequence seen (0 if none)
};

/// Scans every segment under `directory` (oldest first), truncating a
/// torn tail of the newest segment in place. Corrupt bytes are never
/// trusted and never fatal; counters land in `stats`.
JournalRecovery recover_journal(const std::filesystem::path& directory,
                                const DurabilityOptions& options,
                                RecoveryStats& stats);

}  // namespace ftio::durability
