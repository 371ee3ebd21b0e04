#pragma once

// The copy-based durability encoders, kept as the oracle that the
// in-place encoders are checked against: every record and tenant payload
// is built in its own buffer, one field at a time, then copied behind a
// [u32 len][u32 crc32c] header, and vectors of doubles are written one
// element at a time. The on-disk formats are defined by these functions;
// durability::encode_journal_record, durability::encode_checkpoint,
// JournalWriter::append and util::BinWriter::f64_vec must reproduce them
// byte for byte. Used by tests/util_durability_io_test.cpp and the
// fuzz_durability harness.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "durability/checkpoint.hpp"
#include "durability/journal.hpp"
#include "trace/model.hpp"
#include "util/binio.hpp"
#include "util/crc32c.hpp"

namespace ftio::fuzz::durability_codec_oracle {

inline void f64_vec(ftio::util::BinWriter& out,
                    std::span<const double> values) {
  out.u64(values.size());
  for (double v : values) out.f64(v);
}

inline void write_request(ftio::util::BinWriter& out,
                          const ftio::trace::IoRequest& r) {
  out.i64(r.rank);
  out.f64(r.start);
  out.f64(r.end);
  out.u64(r.bytes);
  out.u8(static_cast<std::uint8_t>(r.kind));
}

/// The table CRC, so the oracle does not share the dispatching one.
inline std::uint32_t crc(const std::uint8_t* data, std::size_t size) {
  return ftio::util::crc32c_detail::extend_table(0, data, size);
}

/// Appends `payload` behind its frame header.
inline void append_frame(ftio::util::BinWriter& out,
                         const std::vector<std::uint8_t>& payload) {
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.u32(crc(payload.data(), payload.size()));
  out.append(payload);
}

inline std::vector<std::uint8_t> encode_journal_record(
    const ftio::durability::JournalRecord& record) {
  ftio::util::BinWriter payload;
  payload.u8(static_cast<std::uint8_t>(record.type));
  payload.u64(record.seq);
  payload.str(record.tenant);
  if (record.type == ftio::durability::JournalRecordType::kFlush) {
    payload.u64(record.requests.size());
    for (const auto& r : record.requests) write_request(payload, r);
  } else {
    payload.u64(record.aborted_seq);
  }
  ftio::util::BinWriter frame;
  append_frame(frame, payload.bytes());
  return frame.take();
}

inline std::vector<std::uint8_t> encode_tenant(
    const ftio::durability::TenantSnapshot& tenant) {
  ftio::util::BinWriter out;
  out.str(tenant.name);
  out.boolean(tenant.poisoned);
  out.u64(tenant.last_applied_seq);
  out.u64(tenant.pending.size());
  for (const auto& r : tenant.pending) write_request(out, r);
  out.boolean(tenant.has_session);
  out.blob(tenant.session_state);
  return out.take();
}

inline std::vector<std::uint8_t> encode_checkpoint(
    const ftio::durability::CheckpointData& data) {
  constexpr char kMagic[8] = {'F', 'T', 'I', 'O', 'C', 'K', 'P', 'T'};
  constexpr std::uint32_t kVersion = 1;
  constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;
  ftio::util::BinWriter out;
  for (char c : kMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u32(kVersion);
  out.u64(data.floor_seq);
  out.u64(data.tenants.size());
  out.u32(crc(out.bytes().data(), kHeaderBytes));
  for (const auto& tenant : data.tenants) {
    append_frame(out, encode_tenant(tenant));
  }
  return out.take();
}

}  // namespace ftio::fuzz::durability_codec_oracle
