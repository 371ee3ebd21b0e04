#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "trace/model.hpp"
#include "util/binio.hpp"
#include "util/error.hpp"

/// The request array shared by journal flush records and checkpoint
/// tenant frames: a u64 count, then one fixed 33-byte little-endian
/// record per request, [i64 rank][f64 start][f64 end][u64 bytes]
/// [u8 kind]. Fixed-size records let both directions touch the buffer
/// once per array instead of five times per request.
namespace ftio::durability::detail {

inline constexpr std::size_t kRequestBytes = 4 * 8 + 1;

/// Encoded size of an array of `n` requests, count prefix included.
inline std::size_t request_array_bytes(std::size_t n) {
  return sizeof(std::uint64_t) + n * kRequestBytes;
}

inline void write_requests(ftio::util::BinWriter& out,
                           std::span<const ftio::trace::IoRequest> requests) {
  out.u64(requests.size());
  std::uint8_t* p = out.grow(requests.size() * kRequestBytes).data();
  for (const auto& r : requests) {
    const auto rank = static_cast<std::int64_t>(r.rank);
    std::memcpy(p, &rank, 8);
    std::memcpy(p + 8, &r.start, 8);
    std::memcpy(p + 16, &r.end, 8);
    std::memcpy(p + 24, &r.bytes, 8);
    p[32] = static_cast<std::uint8_t>(r.kind);
    p += kRequestBytes;
  }
}

/// Decodes an array written by write_requests; throws util::ParseError
/// on malformed input.
inline std::vector<ftio::trace::IoRequest> read_requests(
    ftio::util::BinReader& in) {
  const std::size_t n = in.count(kRequestBytes);
  const std::uint8_t* p = in.bytes(n * kRequestBytes).data();
  std::vector<ftio::trace::IoRequest> out(n);
  for (auto& r : out) {
    if (p[32] > 1) throw ftio::util::ParseError("durability: bad IoKind");
    std::int64_t rank = 0;
    std::memcpy(&rank, p, 8);
    r.rank = static_cast<int>(rank);
    std::memcpy(&r.start, p + 8, 8);
    std::memcpy(&r.end, p + 16, 8);
    std::memcpy(&r.bytes, p + 24, 8);
    r.kind = static_cast<ftio::trace::IoKind>(p[32]);
    p += kRequestBytes;
  }
  return out;
}

}  // namespace ftio::durability::detail
