#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace ftio::util {

/// Little-endian binary encoder used by the durability formats. Appends
/// into a growable byte buffer; doubles are written as raw IEEE-754 bit
/// patterns so a round trip is bit-exact (the snapshot bit-identity
/// guarantee depends on this — no text formatting anywhere).
class BinWriter {
 public:
  /// [u32 payload_len][u32 crc32c] ahead of every framed payload.
  static constexpr std::size_t kFrameHeaderBytes = 2 * sizeof(std::uint32_t);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return buffer_;
  }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }
  /// Empties the buffer but keeps its capacity, for writers that encode
  /// one record after another into the same storage.
  void clear() { buffer_.clear(); }
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  void u8(std::uint8_t value) { buffer_.push_back(value); }
  void u16(std::uint16_t value) { raw(&value, sizeof(value)); }
  void u32(std::uint32_t value) { raw(&value, sizeof(value)); }
  void u64(std::uint64_t value) { raw(&value, sizeof(value)); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void boolean(bool value) { u8(value ? 1 : 0); }

  void f64(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    u64(bits);
  }

  void str(std::string_view value) {
    u64(value.size());
    raw(value.data(), value.size());
  }

  void f64_vec(std::span<const double> values) {
    u64(values.size());
    raw(values.data(), values.size() * sizeof(double));
  }

  void f64_opt(const std::optional<double>& value) {
    boolean(value.has_value());
    f64(value.value_or(0.0));
  }

  void blob(std::span<const std::uint8_t> bytes) {
    u64(bytes.size());
    raw(bytes.data(), bytes.size());
  }

  /// Appends raw bytes without a length prefix (for callers that lay out
  /// fixed-size records themselves).
  void append(std::span<const std::uint8_t> bytes) {
    raw(bytes.data(), bytes.size());
  }

  /// Grows the buffer by `size` bytes in one step and returns them for
  /// the caller to fill (a fixed-layout array of records).
  std::span<std::uint8_t> grow(std::size_t size) {
    const std::size_t old = buffer_.size();
    buffer_.resize(old + size);
    return {buffer_.data() + old, size};
  }

  /// Opens a CRC32C frame, [u32 payload_len][u32 crc32c][payload]: writes
  /// a placeholder header and returns its offset. Everything written
  /// until end_frame(offset) is the payload, encoded in place.
  std::size_t begin_frame() {
    const std::size_t offset = buffer_.size();
    buffer_.resize(offset + kFrameHeaderBytes);
    return offset;
  }

  /// Closes the frame opened at `offset`: fills in the payload length and
  /// its CRC32C.
  void end_frame(std::size_t offset) {
    const std::size_t start = offset + kFrameHeaderBytes;
    const auto len = static_cast<std::uint32_t>(buffer_.size() - start);
    const std::uint32_t crc = crc32c(buffer_.data() + start, len);
    std::memcpy(buffer_.data() + offset, &len, sizeof(len));
    std::memcpy(buffer_.data() + offset + sizeof(len), &crc, sizeof(crc));
  }

 private:
  void raw(const void* data, std::size_t size) {
    if (size == 0) return;
    const std::size_t old = buffer_.size();
    buffer_.resize(old + size);
    std::memcpy(buffer_.data() + old, data, size);
  }

  static_assert(std::endian::native == std::endian::little,
                "durability formats assume a little-endian host");

  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked little-endian decoder. Every read throws ParseError on
/// truncation, and element-count prefixes are validated against the bytes
/// actually remaining *before* any allocation — arbitrary (fuzzed or
/// corrupt) input must recover-or-reject, never crash or over-allocate.
class BinReader {
 public:
  explicit BinReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint16_t u16() { return read_int<std::uint16_t>(); }
  std::uint32_t u32() { return read_int<std::uint32_t>(); }
  std::uint64_t u64() { return read_int<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  bool boolean() {
    std::uint8_t v = u8();
    if (v > 1) throw ParseError("binio: boolean byte out of range");
    return v == 1;
  }

  double f64() {
    std::uint64_t bits = u64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  /// Validated element count: the caller states the minimum encoded size
  /// of one element, so a hostile count can never drive an allocation
  /// larger than the buffer that carries it.
  std::size_t count(std::size_t min_element_bytes) {
    std::uint64_t n = u64();
    if (min_element_bytes == 0) min_element_bytes = 1;
    if (n > remaining() / min_element_bytes) {
      throw ParseError("binio: element count exceeds remaining bytes");
    }
    return static_cast<std::size_t>(n);
  }

  std::string str() {
    const auto view = bytes(count(1));
    return {reinterpret_cast<const char*>(view.data()), view.size()};
  }

  std::vector<double> f64_vec() {
    const std::size_t n = count(sizeof(double));
    const auto view = bytes(n * sizeof(double));
    std::vector<double> out(n);
    if (n > 0) std::memcpy(out.data(), view.data(), view.size());
    return out;
  }

  std::optional<double> f64_opt() {
    bool has = boolean();
    double value = f64();
    if (!has) return std::nullopt;
    return value;
  }

  std::vector<std::uint8_t> blob() {
    const auto view = bytes(count(1));
    return {view.begin(), view.end()};
  }

  /// A bounded sub-reader over the next `n` bytes (consumes them).
  BinReader sub(std::size_t n) { return BinReader(bytes(n)); }

  /// A view of the next `n` bytes (consumes them): one bounds check for a
  /// fixed-layout array the caller decodes itself.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    const auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

 private:
  template <typename T>
  T read_int() {
    need(sizeof(T));
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  void need(std::size_t n) const {
    if (remaining() < n) throw ParseError("binio: truncated input");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ftio::util
