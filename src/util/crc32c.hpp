#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define FTIO_CRC32C_HAVE_SSE42 1
#else
#define FTIO_CRC32C_HAVE_SSE42 0
#endif

namespace ftio::util {

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum
/// used by the durability layer to frame checkpoint tenants and journal
/// records. Every journal byte and every checkpoint byte passes through
/// it, so on the durable daemon it is a measurable share of each flush
/// and most of a checkpoint's encode time, not noise beside the fsync.
/// Two implementations with identical results: the SSE4.2 `crc32`
/// instruction, picked once at run time when the CPU has it (the
/// portable x86-64 build does not assume it), and a slice-by-8 table
/// for every other CPU.
namespace crc32c_detail {

struct Table {
  std::uint32_t entries[8][256];
};

inline Table make_table() {
  Table t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    t.entries[0][i] = crc;
  }
  // Slice-by-8 extension tables: entries[k][b] is the CRC of byte b
  // followed by k zero bytes.
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = t.entries[0][i];
    for (int k = 1; k < 8; ++k) {
      crc = t.entries[0][crc & 0xFFu] ^ (crc >> 8);
      t.entries[k][i] = crc;
    }
  }
  return t;
}

inline const Table& table() {
  static const Table t = make_table();
  return t;
}

/// Portable slice-by-8 path. Same contract as crc32c_extend.
inline std::uint32_t extend_table(std::uint32_t crc, const void* data,
                                  std::size_t size) {
  const auto& t = table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  while (size >= 8) {
    std::uint32_t low = crc ^ (std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
                               std::uint32_t(p[2]) << 16 |
                               std::uint32_t(p[3]) << 24);
    crc = t.entries[7][low & 0xFFu] ^ t.entries[6][(low >> 8) & 0xFFu] ^
          t.entries[5][(low >> 16) & 0xFFu] ^ t.entries[4][low >> 24] ^
          t.entries[3][p[4]] ^ t.entries[2][p[5]] ^ t.entries[1][p[6]] ^
          t.entries[0][p[7]];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = t.entries[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

/// True when extend_sse42 may run on this CPU.
inline bool has_sse42() {
#if FTIO_CRC32C_HAVE_SSE42
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
#else
  return false;
#endif
}

#if FTIO_CRC32C_HAVE_SSE42
/// The SSE4.2 `crc32` instruction (which computes exactly CRC-32C), eight
/// bytes per step. Same contract as crc32c_extend; callers must check
/// has_sse42() first.
__attribute__((target("sse4.2"))) inline std::uint32_t extend_sse42(
    std::uint32_t crc, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t wide = ~crc;
  while (size >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    wide = _mm_crc32_u64(wide, word);
    p += 8;
    size -= 8;
  }
  crc = static_cast<std::uint32_t>(wide);
  while (size-- > 0) crc = _mm_crc32_u8(crc, *p++);
  return ~crc;
}
#endif

}  // namespace crc32c_detail

/// Extends a running CRC-32C over `size` bytes. Start (and finish) with
/// crc32c(): the pre/post inversion is handled internally, so values are
/// directly comparable and resumable.
inline std::uint32_t crc32c_extend(std::uint32_t crc, const void* data,
                                   std::size_t size) {
#if FTIO_CRC32C_HAVE_SSE42
  static const bool hardware = crc32c_detail::has_sse42();
  if (hardware) return crc32c_detail::extend_sse42(crc, data, size);
#endif
  return crc32c_detail::extend_table(crc, data, size);
}

/// CRC-32C of a whole buffer.
inline std::uint32_t crc32c(const void* data, std::size_t size) {
  return crc32c_extend(0, data, size);
}

}  // namespace ftio::util
