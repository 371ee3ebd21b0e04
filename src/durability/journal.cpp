#include "durability/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <string>
#include <unistd.h>
#include <utility>

#include "durability/request_codec.hpp"
#include "util/binio.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"
#include "util/file.hpp"

namespace ftio::durability {

namespace {

using ftio::util::BinWriter;

constexpr std::size_t kFrameHeaderBytes = BinWriter::kFrameHeaderBytes;

/// Payload bytes of one record (the frame header excluded).
std::size_t payload_bytes(JournalRecordType type, std::string_view tenant,
                          std::size_t requests) {
  return 1 + 8 + 8 + tenant.size() +
         (type == JournalRecordType::kFlush
              ? detail::request_array_bytes(requests)
              : 8);
}

/// Appends one framed record to `out`, encoding the payload in place.
void encode_frame(BinWriter& out, JournalRecordType type, std::uint64_t seq,
                  std::string_view tenant,
                  std::span<const ftio::trace::IoRequest> requests,
                  std::uint64_t aborted_seq) {
  const std::size_t frame = out.begin_frame();
  out.u8(static_cast<std::uint8_t>(type));
  out.u64(seq);
  out.str(tenant);
  if (type == JournalRecordType::kFlush) {
    detail::write_requests(out, requests);
  } else {
    out.u64(aborted_seq);
  }
  out.end_frame(frame);
}

JournalRecord decode_payload(std::span<const std::uint8_t> payload) {
  ftio::util::BinReader in(payload);
  JournalRecord record;
  const std::uint8_t type = in.u8();
  if (type != static_cast<std::uint8_t>(JournalRecordType::kFlush) &&
      type != static_cast<std::uint8_t>(JournalRecordType::kAbort)) {
    throw ftio::util::ParseError("journal: bad record type");
  }
  record.type = static_cast<JournalRecordType>(type);
  record.seq = in.u64();
  record.tenant = in.str();
  if (record.type == JournalRecordType::kFlush) {
    record.requests = detail::read_requests(in);
  } else {
    record.aborted_seq = in.u64();
  }
  if (!in.done()) {
    throw ftio::util::ParseError("journal: trailing bytes in record");
  }
  return record;
}

/// Journal segments: seg-<20-digit first sequence>.wal.
std::string segment_name(std::uint64_t first_seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "seg-%020llu.wal",
                static_cast<unsigned long long>(first_seq));
  return buf;
}

bool parse_segment_name(const std::string& name, std::uint64_t& first_seq) {
  if (name.size() != 28 || name.rfind("seg-", 0) != 0 ||
      name.compare(24, 4, ".wal") != 0) {
    return false;
  }
  first_seq = 0;
  for (std::size_t i = 4; i < 24; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    first_seq = first_seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode_journal_record(const JournalRecord& record) {
  BinWriter out;
  out.reserve(kFrameHeaderBytes + payload_bytes(record.type, record.tenant,
                                                record.requests.size()));
  encode_frame(out, record.type, record.seq, record.tenant, record.requests,
               record.aborted_seq);
  return out.take();
}

JournalScan scan_journal_bytes(std::span<const std::uint8_t> bytes,
                               std::size_t max_record_bytes,
                               std::vector<JournalRecord>& out) {
  JournalScan scan;
  std::size_t pos = 0;
  while (bytes.size() - pos >= kFrameHeaderBytes) {
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    std::memcpy(&crc, bytes.data() + pos + sizeof(len), sizeof(crc));
    // An oversized or beyond-the-end length is indistinguishable from a
    // frame the crash cut short: stop trusting here.
    if (len > max_record_bytes ||
        len > bytes.size() - pos - kFrameHeaderBytes) {
      scan.clean = false;
      return scan;
    }
    const auto payload = bytes.subspan(pos + kFrameHeaderBytes, len);
    if (ftio::util::crc32c(payload.data(), payload.size()) != crc) {
      ++scan.records_discarded;
      scan.clean = false;
      return scan;
    }
    try {
      out.push_back(decode_payload(payload));
    } catch (const ftio::util::ParseError&) {
      ++scan.records_discarded;
      scan.clean = false;
      return scan;
    }
    pos += kFrameHeaderBytes + len;
    scan.valid_bytes = pos;
  }
  scan.clean = scan.clean && pos == bytes.size();
  return scan;
}

JournalWriter::JournalWriter(std::filesystem::path directory,
                             DurabilityOptions options,
                             std::uint64_t next_seq)
    : directory_(std::move(directory)), options_(std::move(options)),
      next_seq_(next_seq) {
  std::filesystem::create_directories(directory_);
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::open_segment() {
  segment_path_ = directory_ / segment_name(next_seq_);
  fd_ = ::open(segment_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    throw ftio::util::IoError("journal: cannot open segment: " +
                              segment_path_.string() + ": " +
                              std::strerror(errno));
  }
  segment_bytes_ = 0;
  unsynced_records_ = 0;
  // Make the directory entry durable: a crash right after rotation must
  // still find the new segment (or find nothing — never a ghost name).
  ftio::util::file_detail::fsync_parent_dir(segment_path_);
}

void JournalWriter::close_segment() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
}

std::uint64_t JournalWriter::append(
    JournalRecordType type, std::string_view tenant,
    std::span<const ftio::trace::IoRequest> requests,
    std::uint64_t aborted_seq) {
  // Refused before anything is written: scan_journal_bytes could not
  // tell an oversized frame from a torn one, so recovery would truncate
  // it together with every acknowledged record behind it.
  const std::size_t payload = payload_bytes(type, tenant, requests.size());
  if (payload > options_.max_record_bytes) {
    throw ftio::util::InvalidArgument(
        "journal: record of " + std::to_string(payload) +
        " bytes exceeds max_record_bytes");
  }
  frame_.clear();
  frame_.reserve(kFrameHeaderBytes + payload);
  encode_frame(frame_, type, next_seq_, tenant, requests, aborted_seq);
  const std::vector<std::uint8_t>& frame = frame_.bytes();

  try {
    if (fd_ < 0) open_segment();
    if (FTIO_FAILPOINT("durability.journal_write")) {
      // Simulated crash mid-write: a genuine torn frame lands on disk,
      // exactly what recovery's tail truncation must cope with.
      const std::size_t partial = std::max<std::size_t>(1, frame.size() / 3);
      ftio::util::file_detail::write_all(fd_, frame.data(), partial,
                                         segment_path_);
      throw ftio::util::IoError("failpoint: durability.journal_write");
    }
    ftio::util::file_detail::write_all(fd_, frame.data(), frame.size(),
                                       segment_path_);
    segment_bytes_ += frame.size();
    ++unsynced_records_;
    if (options_.fsync_every_records > 0 &&
        unsynced_records_ >= options_.fsync_every_records) {
      sync();
    }
    if (segment_bytes_ >= options_.max_segment_bytes) {
      if (FTIO_FAILPOINT("durability.journal_rotate")) {
        throw ftio::util::IoError("failpoint: durability.journal_rotate");
      }
      sync();
      close_segment();
      ++rotations_;
    }
  } catch (...) {
    // The segment tail is now suspect (possibly torn). Abandon it and
    // burn the sequence: the next append starts a fresh segment, so the
    // torn frame can never shadow a later acknowledged record in the
    // same file.
    close_segment();
    ++next_seq_;
    throw;
  }
  return next_seq_++;
}

void JournalWriter::sync() {
  if (fd_ < 0) return;
  if (FTIO_FAILPOINT("durability.journal_fsync")) {
    throw ftio::util::IoError("failpoint: durability.journal_fsync");
  }
  if (::fsync(fd_) != 0) {
    throw ftio::util::IoError("journal: fsync failed: " +
                              segment_path_.string() + ": " +
                              std::strerror(errno));
  }
  unsynced_records_ = 0;
}

void truncate_journal(const std::filesystem::path& directory,
                      std::uint64_t floor_seq,
                      const std::filesystem::path& open_segment) {
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> segments;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec)) {
    std::uint64_t first = 0;
    if (parse_segment_name(entry.path().filename().string(), first)) {
      segments.emplace_back(first, entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  // Segment i holds sequences [first_i, first_{i+1}); it is redundant
  // once every one of them is <= floor. The open (newest) segment is
  // never deleted.
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first <= floor_seq + 1 &&
        segments[i].second != open_segment) {
      std::filesystem::remove(segments[i].second, ec);
    }
  }
}

JournalRecovery recover_journal(const std::filesystem::path& directory,
                                const DurabilityOptions& options,
                                RecoveryStats& stats) {
  JournalRecovery recovery;
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> segments;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec)) {
    std::uint64_t first = 0;
    if (parse_segment_name(entry.path().filename().string(), first)) {
      segments.emplace_back(first, entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());

  for (const auto& [first_seq, path] : segments) {
    (void)first_seq;
    std::vector<std::uint8_t> bytes;
    try {
      bytes = ftio::util::read_binary_file(path);
    } catch (const ftio::util::ParseError&) {
      ++stats.records_discarded;
      continue;
    }
    const JournalScan scan =
        scan_journal_bytes(bytes, options.max_record_bytes,
                           recovery.records);
    stats.records_discarded += scan.records_discarded;
    if (scan.valid_bytes < bytes.size()) {
      // Torn or corrupt tail: truncate it away so the bad bytes are
      // gone for good (repeat recoveries see a clean segment). The
      // truncated records were never acknowledged — an append either
      // completed its frame (and fsync policy) before the ack, or threw.
      if (::truncate(path.c_str(), static_cast<off_t>(scan.valid_bytes)) ==
          0) {
        ++stats.torn_tails_truncated;
      }
    }
  }
  for (const auto& record : recovery.records) {
    recovery.max_seq = std::max(recovery.max_seq, record.seq);
  }
  return recovery;
}

}  // namespace ftio::durability
