#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "durability/checkpoint.hpp"
#include "durability/journal.hpp"
#include "engine/streaming.hpp"
#include "fuzz/durability_codec_oracle.hpp"
#include "fuzz/harness_durability.hpp"
#include "trace/model.hpp"
#include "util/binio.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/file.hpp"

namespace util = ftio::util;
namespace dur = ftio::durability;
namespace tr = ftio::trace;
namespace oracle = ftio::fuzz::durability_codec_oracle;
namespace fs = std::filesystem;

namespace {

fs::path temp_file(const std::string& name) {
  return fs::temp_directory_path() /
         ("ftio_io_test_" + std::to_string(::getpid()) + "_" + name);
}

std::vector<std::uint8_t> seeded_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// Times that stress the bit-pattern encoding: signed zero, NaN,
/// infinities, subnormals, plus ordinary values.
double awkward_time(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0: return -0.0;
    case 1: return std::numeric_limits<double>::quiet_NaN();
    case 2: return -std::numeric_limits<double>::infinity();
    case 3: return std::numeric_limits<double>::denorm_min();
    default:
      return std::uniform_real_distribution<double>(-10.0, 1e6)(rng);
  }
}

std::vector<tr::IoRequest> seeded_requests(std::mt19937_64& rng,
                                           std::size_t n) {
  std::vector<tr::IoRequest> out(n);
  for (auto& r : out) {
    r.rank = static_cast<int>(rng());  // any int, negative ranks included
    r.start = awkward_time(rng);
    r.end = awkward_time(rng);
    r.bytes = rng();
    r.kind = rng() % 2 == 0 ? tr::IoKind::kWrite : tr::IoKind::kRead;
  }
  return out;
}

std::string seeded_name(std::mt19937_64& rng) {
  std::string name(rng() % 24, '\0');
  for (auto& c : name) c = static_cast<char>(rng());
  return name;
}

dur::JournalRecord seeded_record(std::mt19937_64& rng) {
  dur::JournalRecord record;
  record.type = rng() % 4 == 0 ? dur::JournalRecordType::kAbort
                               : dur::JournalRecordType::kFlush;
  record.seq = rng();
  record.tenant = seeded_name(rng);
  // Abort records carry no requests on disk; a stray vector must not
  // leak into the frame either.
  record.requests = seeded_requests(rng, rng() % 40);
  record.aborted_seq = rng();
  return record;
}

dur::CheckpointData seeded_checkpoint(std::mt19937_64& rng) {
  dur::CheckpointData data;
  data.floor_seq = rng();
  data.tenants.resize(rng() % 6);
  for (auto& t : data.tenants) {
    t.name = seeded_name(rng);
    t.poisoned = rng() % 5 == 0;
    t.last_applied_seq = rng();
    t.pending = seeded_requests(rng, rng() % 3 == 0 ? 0 : rng() % 20);
    t.has_session = rng() % 3 != 0;
    t.session_state = seeded_bytes(rng() % 600, rng());
  }
  return data;
}

std::vector<std::uint8_t> oracle_journal(
    const std::vector<dur::JournalRecord>& records) {
  std::vector<std::uint8_t> out;
  for (const auto& record : records) {
    const auto frame = oracle::encode_journal_record(record);
    out.insert(out.end(), frame.begin(), frame.end());
  }
  return out;
}

dur::DurabilityOptions journal_options() {
  dur::DurabilityOptions options;
  options.fsync_every_records = 0;
  return options;
}

std::vector<dur::TenantFrameView> frame_views(const dur::CheckpointData& data) {
  std::vector<dur::TenantFrameView> views;
  for (const auto& t : data.tenants) {
    views.push_back({t.name, t.poisoned, t.last_applied_seq, t.pending,
                     t.has_session, t.session_state});
  }
  return views;
}

fs::path checkpoint_path(const fs::path& dir, std::uint64_t seq) {
  std::string digits = std::to_string(seq);
  digits.insert(0, 20 - digits.size(), '0');
  return dir / ("checkpoint-" + digits + ".ckpt");
}

std::vector<std::string> file_names(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// The single segment a JournalWriter left under `dir`.
std::vector<std::uint8_t> only_segment(const fs::path& dir) {
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    segments.push_back(entry.path());
  }
  EXPECT_EQ(segments.size(), 1u);
  return segments.empty() ? std::vector<std::uint8_t>{}
                          : util::read_binary_file(segments.front());
}

}  // namespace

TEST(Crc32c, KnownAnswerVectors) {
  // The canonical CRC-32C check value (RFC 3720 appendix / every
  // Castagnoli implementation): crc("123456789") == 0xE3069283.
  const std::string check = "123456789";
  EXPECT_EQ(util::crc32c(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(util::crc32c(nullptr, 0), 0u);

  const std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(util::crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(util::crc32c(ones.data(), ones.size()), 0x62A8AB43u);
}

TEST(Crc32c, IncrementalExtendMatchesOneShot) {
  std::vector<std::uint8_t> data(1027);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const std::uint32_t whole = util::crc32c(data.data(), data.size());
  // Resume at every split point, including ones that break the
  // slice-by-8 fast path's 8-byte alignment.
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{8}, std::size_t{9}, std::size_t{512},
                            data.size()}) {
    std::uint32_t crc = util::crc32c(data.data(), split);
    crc = util::crc32c_extend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split " << split;
  }
}

#if FTIO_CRC32C_HAVE_SSE42
// The SSE4.2 path against the table path, called directly so a machine
// with SSE4.2 still exercises the fallback.
TEST(Crc32c, HardwareMatchesTableAtEveryLengthAndAlignment) {
  if (!util::crc32c_detail::has_sse42()) GTEST_SKIP() << "no SSE4.2";
  const auto data = seeded_bytes(1024 + 8, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::uint8_t* p = data.data() + offset;
      ASSERT_EQ(util::crc32c_detail::extend_sse42(0, p, len),
                util::crc32c_detail::extend_table(0, p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32c, HardwareMatchesTableAtEverySplit) {
  if (!util::crc32c_detail::has_sse42()) GTEST_SKIP() << "no SSE4.2";
  const auto data = seeded_bytes(1027, 2);
  const std::uint32_t whole =
      util::crc32c_detail::extend_table(0, data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::size_t rest = data.size() - split;
    const std::uint32_t hw = util::crc32c_detail::extend_sse42(
        util::crc32c_detail::extend_sse42(0, data.data(), split),
        data.data() + split, rest);
    const std::uint32_t table = util::crc32c_detail::extend_table(
        util::crc32c_detail::extend_table(0, data.data(), split),
        data.data() + split, rest);
    ASSERT_EQ(hw, whole) << "split " << split;
    ASSERT_EQ(table, whole) << "split " << split;
    ASSERT_EQ(util::crc32c_extend(util::crc32c(data.data(), split),
                                  data.data() + split, rest),
              whole)
        << "split " << split;
  }
}

TEST(Crc32c, HardwareMatchesTableOnOneMebibyte) {
  if (!util::crc32c_detail::has_sse42()) GTEST_SKIP() << "no SSE4.2";
  const auto data = seeded_bytes(1u << 20, 3);
  EXPECT_EQ(util::crc32c_detail::extend_sse42(0, data.data(), data.size()),
            util::crc32c_detail::extend_table(0, data.data(), data.size()));
}
#endif

TEST(Crc32c, SingleBitFlipsChangeTheSum) {
  std::vector<std::uint8_t> data(64, 0x5C);
  const std::uint32_t base = util::crc32c(data.data(), data.size());
  for (std::size_t byte : {std::size_t{0}, std::size_t{31}, std::size_t{63}}) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(util::crc32c(data.data(), data.size()), base);
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST(BinIo, RoundTripsEveryFieldKind) {
  util::BinWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.boolean(true);
  w.f64(-0.0);  // sign-of-zero must survive: bit-pattern, not value
  w.f64(1.0 / 3.0);
  w.str("tenant/λ");
  w.f64_vec(std::vector<double>{1.5, -2.5, 1e-300});
  w.f64_opt(std::nullopt);
  w.f64_opt(2.75);
  w.blob(std::vector<std::uint8_t>{9, 8, 7});

  util::BinReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  const double negzero = r.f64();
  EXPECT_EQ(negzero, 0.0);
  EXPECT_TRUE(std::signbit(negzero));
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_EQ(r.str(), "tenant/λ");
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{1.5, -2.5, 1e-300}));
  EXPECT_EQ(r.f64_opt(), std::nullopt);
  EXPECT_EQ(r.f64_opt(), std::optional<double>(2.75));
  EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_TRUE(r.done());
}

TEST(BinIo, TruncatedAndOversizedInputsAreRejected) {
  util::BinWriter w;
  w.str("hello");
  auto bytes = w.take();

  // Cut inside the string payload: the length prefix promises more
  // bytes than exist.
  std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 2);
  util::BinReader r(cut);
  EXPECT_THROW(r.str(), util::ParseError);

  // A corrupted length prefix must not allocate or scan past the end.
  bytes[0] = 0xFF;
  bytes[1] = 0xFF;
  util::BinReader r2(bytes);
  EXPECT_THROW(r2.str(), util::ParseError);

  util::BinReader empty(std::span<const std::uint8_t>{});
  EXPECT_TRUE(empty.done());
  EXPECT_THROW(empty.u8(), util::ParseError);
}

TEST(BinIo, BooleanByteOutOfRangeThrows) {
  const std::uint8_t two = 2;
  util::BinReader r(std::span<const std::uint8_t>(&two, 1));
  EXPECT_THROW(r.boolean(), util::ParseError);
}

TEST(BinIo, SubReaderIsBounded) {
  util::BinWriter w;
  w.u32(0x11111111u);
  w.u32(0x22222222u);
  util::BinReader r(w.bytes());
  util::BinReader sub = r.sub(4);
  EXPECT_EQ(sub.u32(), 0x11111111u);
  EXPECT_THROW(sub.u32(), util::ParseError);  // cannot read past its slice
  EXPECT_EQ(r.u32(), 0x22222222u);            // parent resumed after the slice
  EXPECT_THROW(r.sub(1), util::ParseError);   // nothing left to slice
}

TEST(FileIo, AtomicWriteCreatesReplacesAndLeavesNoTemp) {
  const fs::path path = temp_file("atomic.bin");
  fs::remove(path);
  const std::vector<std::uint8_t> first{1, 2, 3, 4, 5};
  util::write_file_atomic(path, first);
  EXPECT_EQ(util::read_binary_file(path), first);

  const std::vector<std::uint8_t> second(4096, 0xC3);
  util::write_file_atomic(path, second);
  EXPECT_EQ(util::read_binary_file(path), second);

  fs::path tmp = path;
  tmp += ".tmp";
  EXPECT_FALSE(fs::exists(tmp));
  fs::remove(path);
}

TEST(FileIo, AtomicWriteFailureLeavesTargetUntouched) {
  const fs::path dir = temp_file("atomic_dir");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "value.bin";
  const std::vector<std::uint8_t> original{42};
  util::write_file_atomic(path, original);

  // Make the temp path unopenable: a directory squatting on it. The
  // attempt must throw and the committed file must still read back.
  fs::path tmp = path;
  tmp += ".tmp";
  fs::create_directories(tmp);
  EXPECT_THROW(
      util::write_file_atomic(path, std::vector<std::uint8_t>{9, 9, 9}),
      util::IoError);
  EXPECT_EQ(util::read_binary_file(path), original);
  fs::remove_all(dir);
}

TEST(FileIo, WritesIntoMissingDirectoriesThrowIoError) {
  const fs::path bogus =
      temp_file("no_such_dir") / "deeper" / "out.bin";
  EXPECT_THROW(util::write_file_atomic(bogus, std::vector<std::uint8_t>{1}),
               util::IoError);
  EXPECT_THROW(util::write_binary_file(bogus, std::vector<std::uint8_t>{1}),
               util::IoError);
  EXPECT_THROW(util::write_text_file(bogus, "x"), util::IoError);
}

TEST(FileIo, TextAndBinaryCheckedWritesRoundTrip) {
  const fs::path path = temp_file("checked.txt");
  util::write_text_file(path, "line one\nline two\n");
  EXPECT_EQ(util::read_text_file(path), "line one\nline two\n");
  EXPECT_THROW(util::read_text_file(temp_file("absent.txt")),
               util::ParseError);
  fs::remove(path);
}

TEST(FileIo, WholeFileReadsRoundTripAtEverySize) {
  const fs::path path = temp_file("whole.bin");
  // Empty, one byte, and a multi-MB file whose size is no multiple of a
  // stream buffer: each reads back as exactly the bytes written.
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{(5u << 20) + 3}}) {
    std::vector<std::uint8_t> bytes(size);
    for (std::size_t i = 0; i < size; ++i) {
      bytes[i] = static_cast<std::uint8_t>((i * 131u) ^ (i >> 11));
    }
    util::write_binary_file(path, bytes);
    EXPECT_EQ(util::read_binary_file(path), bytes) << size << " bytes";
    const std::string text(bytes.begin(), bytes.end());
    EXPECT_EQ(util::read_text_file(path), text) << size << " bytes";
  }
  fs::remove(path);
  EXPECT_THROW(util::read_binary_file(path), util::ParseError);
}

TEST(FileIo, WholeFileReadsPastAReportedSizeOfZero) {
  // procfs reports size 0 for files that have content: the read must go
  // on to end of file rather than trust the size.
  const fs::path status = "/proc/self/status";
  if (!fs::exists(status)) GTEST_SKIP() << "no procfs";
  const std::string text = util::read_text_file(status);
  EXPECT_NE(text.find("Name:"), std::string::npos);
  EXPECT_EQ(util::read_binary_file(status).empty(), false);
}

TEST(BinIo, FrameHeaderHoldsLengthAndCrcOfThePayload) {
  util::BinWriter w;
  w.u8(0x77);  // a frame need not start the buffer
  const std::size_t frame = w.begin_frame();
  EXPECT_EQ(frame, 1u);
  w.str("payload");
  w.u64(42);
  w.end_frame(frame);

  const auto& bytes = w.bytes();
  util::BinReader r(bytes);
  EXPECT_EQ(r.u8(), 0x77);
  const std::uint32_t len = r.u32();
  const std::uint32_t crc = r.u32();
  ASSERT_EQ(len, r.remaining());
  EXPECT_EQ(crc, util::crc32c(bytes.data() + r.position(), len));
  EXPECT_EQ(r.str(), "payload");
  EXPECT_EQ(r.u64(), 42u);

  util::BinWriter empty;
  empty.end_frame(empty.begin_frame());
  EXPECT_EQ(empty.bytes(), (std::vector<std::uint8_t>{0, 0, 0, 0, 0, 0, 0,
                                                      0}));
}

TEST(BinIo, BulkF64VecMatchesPerElementEncoding) {
  std::mt19937_64 rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> values(rng() % 50);
    for (auto& v : values) v = awkward_time(rng);
    util::BinWriter bulk;
    bulk.f64_vec(values);
    util::BinWriter per_element;
    oracle::f64_vec(per_element, values);
    ASSERT_EQ(bulk.bytes(), per_element.bytes()) << "trial " << trial;

    util::BinReader r(bulk.bytes());
    const std::vector<double> back = r.f64_vec();
    ASSERT_EQ(back.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
                std::bit_cast<std::uint64_t>(values[i]));
    }
    EXPECT_TRUE(r.done());
  }
  // A count promising more doubles than remain is rejected unallocated.
  util::BinWriter lying;
  lying.u64(3);
  lying.f64(1.0);
  util::BinReader r(lying.bytes());
  EXPECT_THROW(r.f64_vec(), util::ParseError);
}

TEST(DurabilityCodec, PinnedJournalRecordsMatchTheOracle) {
  dur::JournalRecord abort;
  abort.type = dur::JournalRecordType::kAbort;
  abort.seq = 17;
  abort.tenant = "lammps";
  abort.aborted_seq = 16;

  dur::JournalRecord empty_tenant;  // kFlush, "" tenant, 0 requests
  empty_tenant.seq = 1;

  dur::JournalRecord odd_times;
  odd_times.seq = std::numeric_limits<std::uint64_t>::max();
  odd_times.tenant = "hacc";
  odd_times.requests = {
      {-1, -0.0, std::numeric_limits<double>::quiet_NaN(), 0,
       tr::IoKind::kRead},
      {std::numeric_limits<int>::max(), 1e-310, 0.0,
       std::numeric_limits<std::uint64_t>::max(), tr::IoKind::kWrite}};

  for (const auto& record : {abort, empty_tenant, odd_times}) {
    EXPECT_EQ(dur::encode_journal_record(record),
              oracle::encode_journal_record(record))
        << "seq " << record.seq;
  }
}

TEST(DurabilityCodec, PinnedCheckpointsMatchTheOracle) {
  dur::CheckpointData none;
  none.floor_seq = 9;

  dur::CheckpointData tenants;
  tenants.floor_seq = 0;
  tenants.tenants.resize(3);
  // [0] empty tenant: no name, no requests, no session.
  tenants.tenants[1].name = "pending-only";  // pending but no session
  tenants.tenants[1].last_applied_seq = 5;
  tenants.tenants[1].pending = {
      {0, -0.0, 2.0, 4096, tr::IoKind::kWrite},
      {3, std::numeric_limits<double>::quiet_NaN(), 1.0, 1, tr::IoKind::kRead}};
  tenants.tenants[2].name = "with-session";
  tenants.tenants[2].poisoned = true;
  tenants.tenants[2].has_session = true;
  tenants.tenants[2].session_state = seeded_bytes(1000, 5);

  for (const auto& data : {none, tenants}) {
    EXPECT_EQ(dur::encode_checkpoint(data), oracle::encode_checkpoint(data))
        << data.tenants.size() << " tenants";
  }
}

TEST(DurabilityCodec, SeededRecordsAndCheckpointsMatchTheOracle) {
  std::mt19937_64 rng(6);
  for (int i = 0; i < 2000; ++i) {
    const dur::JournalRecord record = seeded_record(rng);
    ASSERT_EQ(dur::encode_journal_record(record),
              oracle::encode_journal_record(record))
        << "record " << i;
    const dur::CheckpointData data = seeded_checkpoint(rng);
    ASSERT_EQ(dur::encode_checkpoint(data), oracle::encode_checkpoint(data))
        << "checkpoint " << i;
  }
}

TEST(DurabilityCodec, JournalWriterSegmentMatchesTheOracle) {
  const fs::path dir = temp_file("journal_oracle");
  fs::remove_all(dir);
  std::mt19937_64 rng(7);
  std::vector<dur::JournalRecord> records;
  {
    dur::JournalWriter writer(dir, journal_options(), 100);
    for (int i = 0; i < 300; ++i) {
      dur::JournalRecord record = seeded_record(rng);
      // The reused buffer must not carry a long record's tail into a
      // shorter one: alternate large and small flushes.
      if (i % 7 == 0) record.requests = seeded_requests(rng, 2000);
      record.seq = writer.append(record.type, record.tenant, record.requests,
                                 record.aborted_seq);
      records.push_back(record);
    }
  }
  EXPECT_EQ(only_segment(dir), oracle_journal(records));
  fs::remove_all(dir);
}

TEST(DurabilityCodec, OversizedRecordIsRefusedBeforeAnythingIsWritten) {
  const fs::path dir = temp_file("journal_oversized");
  fs::remove_all(dir);
  auto options = journal_options();
  options.max_record_bytes = 4096;
  std::mt19937_64 rng(8);
  const auto small = seeded_requests(rng, 10);
  const auto large = seeded_requests(rng, 200);  // 6,600+ payload bytes
  std::vector<dur::JournalRecord> records;
  {
    dur::JournalWriter writer(dir, options, 1);
    dur::JournalRecord record;
    record.tenant = "t";
    record.requests = small;
    record.seq = writer.append(record.type, record.tenant, small);
    records.push_back(record);
    EXPECT_THROW(writer.append(dur::JournalRecordType::kFlush, "t", large),
                 util::InvalidArgument);
    EXPECT_EQ(writer.next_seq(), 2u);  // no sequence burnt
    EXPECT_EQ(writer.rotations(), 0u);
    record.seq = writer.append(record.type, record.tenant, small);
    EXPECT_EQ(record.seq, 2u);
    records.push_back(record);
  }
  // Both small records share the one segment, with nothing between them.
  const auto bytes = only_segment(dir);
  EXPECT_EQ(bytes, oracle_journal(records));
  std::vector<dur::JournalRecord> scanned;
  const dur::JournalScan scan =
      dur::scan_journal_bytes(bytes, options.max_record_bytes, scanned);
  EXPECT_TRUE(scan.clean);
  EXPECT_EQ(scanned.size(), 2u);
  fs::remove_all(dir);
}

TEST(DurabilityCodec, StreamedCheckpointFileEqualsEncodeCheckpoint) {
  const fs::path dir = temp_file("streamed_checkpoint");
  fs::remove_all(dir);
  std::mt19937_64 rng(9);

  dur::CheckpointData none;
  none.floor_seq = 3;

  dur::CheckpointData pending_only;
  pending_only.floor_seq = 11;
  auto& waiting = pending_only.tenants.emplace_back();
  waiting.name = "pending-only";
  waiting.last_applied_seq = 11;
  waiting.pending = seeded_requests(rng, 37);

  dur::CheckpointData poisoned;
  poisoned.floor_seq = 0;
  auto& bad = poisoned.tenants.emplace_back();
  bad.name = "poisoned";
  bad.poisoned = true;
  bad.last_applied_seq = 4;

  dur::CheckpointData sessions;
  sessions.floor_seq = 1000;
  sessions.tenants.resize(64);
  for (std::size_t i = 0; i < sessions.tenants.size(); ++i) {
    auto& t = sessions.tenants[i];
    t.name = "tenant-" + std::to_string(i);
    t.last_applied_seq = 1000 + i;
    t.has_session = true;
    // Sizes straddle the frame buffer's earlier capacity both ways.
    t.session_state = seeded_bytes(1 + rng() % 40'000, rng());
  }

  dur::DurabilityOptions options;
  options.keep_checkpoints = 8;
  std::uint64_t seq = 0;
  for (const auto* data : {&none, &pending_only, &poisoned, &sessions}) {
    ++seq;
    SCOPED_TRACE(seq);
    const auto views = frame_views(*data);
    dur::write_checkpoint_file(dir, seq, data->floor_seq, views, options);
    const auto on_disk = util::read_binary_file(checkpoint_path(dir, seq));
    ASSERT_EQ(on_disk, dur::encode_checkpoint(data->floor_seq, views));
    dur::RecoveryStats stats;
    EXPECT_EQ(dur::parse_checkpoint(on_disk, stats).tenants.size(),
              data->tenants.size());
    EXPECT_EQ(stats.tenant_frames_skipped, 0u);
  }
  fs::remove_all(dir);
}

TEST(DurabilityCodec, CheckpointPruneSweepsStaleTempFiles) {
  const fs::path dir = temp_file("checkpoint_temps");
  fs::remove_all(dir);
  fs::create_directories(dir);
  // The remains of a write that died mid-file, plus files that only look
  // similar: neither a foreign .tmp nor a finished checkpoint may go.
  util::write_binary_file(fs::path(checkpoint_path(dir, 1)) += ".tmp",
                          seeded_bytes(100, 1));
  util::write_binary_file(dir / "notes.tmp", seeded_bytes(4, 2));
  dur::DurabilityOptions options;
  options.keep_checkpoints = 2;
  dur::write_checkpoint_file(dir, 2, 0, {}, options);
  EXPECT_EQ(file_names(dir),
            (std::vector<std::string>{"checkpoint-00000000000000000002.ckpt",
                                      "notes.tmp"}));

  util::write_binary_file(fs::path(checkpoint_path(dir, 3)) += ".tmp",
                          seeded_bytes(100, 3));
  dur::remove_checkpoint_temps(dir);
  EXPECT_EQ(file_names(dir).size(), 2u);
  fs::remove_all(dir);
}

TEST(DurabilityCodec, TruncateJournalKeepsOpenSegmentAndAboveFloor) {
  const fs::path dir = temp_file("journal_truncate");
  fs::remove_all(dir);
  auto options = journal_options();
  options.max_segment_bytes = 1;  // one record per segment
  dur::JournalWriter writer(dir, options, 1);
  for (int i = 0; i < 5; ++i) {
    writer.append(dur::JournalRecordType::kFlush, "t", {});
  }
  // seg-1 .. seg-5; the last append rotated, so segment_path still names
  // the closed seg-5, as a reader racing the rotation would see it.
  const fs::path stale_open = writer.segment_path();
  writer.append(dur::JournalRecordType::kFlush, "t", {});  // opens seg-6

  dur::truncate_journal(dir, 3, stale_open);  // records 1..3 are covered
  EXPECT_EQ(file_names(dir).size(), 3u);      // seg-4, seg-5, seg-6
  dur::truncate_journal(dir, 100, stale_open);
  // seg-4 goes; seg-5 is kept as the named open segment, seg-6 as the
  // newest (it has no successor to prove it redundant).
  EXPECT_EQ(file_names(dir),
            (std::vector<std::string>{"seg-00000000000000000005.wal",
                                      "seg-00000000000000000006.wal"}));
  fs::remove_all(dir);
}

// The committed fuzz corpus's "valid" seeds must stay valid: a format
// bump that turns them into rejection-path inputs would leave the fuzzer
// exercising only the reject branch of every decoder behind them.
TEST(DurabilityCorpus, ValidSeedsRestoreAndParse) {
  const fs::path corpus = fs::path(FTIO_SOURCE_DIR) / "fuzz/corpus/durability";

  // The first byte selects the harness target (0: session restore).
  const auto session = util::read_binary_file(corpus / "seed_session_valid");
  ASSERT_FALSE(session.empty());
  ASSERT_EQ(session[0], 0);
  const std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(session).subspan(1);
  ftio::engine::StreamingSession restored(
      ftio::fuzz::durability_session_options());
  ASSERT_NO_THROW(restored.restore_state(payload));
  EXPECT_GT(restored.request_count(), 0u);
  const std::vector<std::uint8_t> image = restored.serialize_state();
  EXPECT_TRUE(std::equal(image.begin(), image.end(), payload.begin(),
                         payload.end()));

  // Target 1: checkpoint parse, with every tenant frame intact and every
  // embedded session blob restoring.
  const auto checkpoint =
      util::read_binary_file(corpus / "seed_checkpoint_valid");
  ASSERT_FALSE(checkpoint.empty());
  ASSERT_EQ(checkpoint[0], 1);
  const std::span<const std::uint8_t> frames =
      std::span<const std::uint8_t>(checkpoint).subspan(1);
  dur::RecoveryStats stats;
  dur::CheckpointData data;
  ASSERT_NO_THROW(data = dur::parse_checkpoint(frames, stats));
  EXPECT_EQ(stats.tenant_frames_skipped, 0u);
  ASSERT_FALSE(data.tenants.empty());
  std::size_t sessions = 0;
  for (const dur::TenantSnapshot& tenant : data.tenants) {
    if (!tenant.has_session) continue;
    ++sessions;
    ftio::engine::StreamingSession tenant_session(
        ftio::fuzz::durability_session_options());
    EXPECT_NO_THROW(tenant_session.restore_state(tenant.session_state))
        << tenant.name;
  }
  EXPECT_GT(sessions, 0u);
}
