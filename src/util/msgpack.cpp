#include "util/msgpack.hpp"

#include <bit>
#include <cstring>
#include <string_view>

#include "util/error.hpp"
#include "util/field_capture.hpp"
#include "util/json_builder.hpp"

namespace ftio::util::msgpack {

namespace {

[[noreturn]] void fail(const char* what) {
  throw ParseError(std::string("msgpack: ") + what);
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

template <typename T>
void put_be(std::vector<std::uint8_t>& out, T v) {
  std::uint8_t buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  if constexpr (std::endian::native == std::endian::little) {
    for (std::size_t i = sizeof(T); i-- > 0;) out.push_back(buf[i]);
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) out.push_back(buf[i]);
  }
}

void encode_int(std::vector<std::uint8_t>& out, std::int64_t v) {
  if (v >= 0) {
    if (v < 0x80) {
      put_u8(out, static_cast<std::uint8_t>(v));  // positive fixint
    } else if (v <= 0xFF) {
      put_u8(out, 0xCC);
      put_u8(out, static_cast<std::uint8_t>(v));
    } else if (v <= 0xFFFF) {
      put_u8(out, 0xCD);
      put_be(out, static_cast<std::uint16_t>(v));
    } else if (v <= 0xFFFFFFFFLL) {
      put_u8(out, 0xCE);
      put_be(out, static_cast<std::uint32_t>(v));
    } else {
      put_u8(out, 0xCF);
      put_be(out, static_cast<std::uint64_t>(v));
    }
  } else {
    if (v >= -32) {
      put_u8(out, static_cast<std::uint8_t>(0xE0 | (v + 32)));  // negative fixint
    } else if (v >= -128) {
      put_u8(out, 0xD0);
      put_u8(out, static_cast<std::uint8_t>(static_cast<std::int8_t>(v)));
    } else if (v >= -32768) {
      put_u8(out, 0xD1);
      put_be(out, static_cast<std::uint16_t>(static_cast<std::int16_t>(v)));
    } else if (v >= -2147483648LL) {
      put_u8(out, 0xD2);
      put_be(out, static_cast<std::uint32_t>(static_cast<std::int32_t>(v)));
    } else {
      put_u8(out, 0xD3);
      put_be(out, static_cast<std::uint64_t>(v));
    }
  }
}

void encode_str(std::vector<std::uint8_t>& out, const std::string& s) {
  const std::size_t n = s.size();
  if (n < 32) {
    put_u8(out, static_cast<std::uint8_t>(0xA0 | n));
  } else if (n <= 0xFF) {
    put_u8(out, 0xD9);
    put_u8(out, static_cast<std::uint8_t>(n));
  } else if (n <= 0xFFFF) {
    put_u8(out, 0xDA);
    put_be(out, static_cast<std::uint16_t>(n));
  } else {
    put_u8(out, 0xDB);
    put_be(out, static_cast<std::uint32_t>(n));
  }
  out.insert(out.end(), s.begin(), s.end());
}

/// The one MessagePack grammar walker: reports every value it reads to
/// `Sink` (JsonBuilder for decode, FieldCapture for trace records).
template <class Sink>
class Decoder {
 public:
  Decoder(std::span<const std::uint8_t> bytes, Sink& sink)
      : bytes_(bytes), sink_(sink) {}

  void decode_value() {
    const std::uint8_t tag = take_u8();
    if (tag < 0x80) return sink_.integer(static_cast<std::int64_t>(tag));
    if (tag >= 0xE0) {
      return sink_.integer(
          static_cast<std::int64_t>(static_cast<std::int8_t>(tag)));
    }
    if ((tag & 0xF0) == 0x80) return decode_map(tag & 0x0F);
    if ((tag & 0xF0) == 0x90) return decode_array(tag & 0x0F);
    if ((tag & 0xE0) == 0xA0) return sink_.string(take_str(tag & 0x1F));
    switch (tag) {
      case 0xC0: return sink_.null();
      case 0xC2: return sink_.boolean(false);
      case 0xC3: return sink_.boolean(true);
      case 0xCA: {
        const auto bits = take_be<std::uint32_t>();
        float f = 0.0f;
        std::memcpy(&f, &bits, sizeof f);
        return sink_.real(static_cast<double>(f));
      }
      case 0xCB: {
        const auto bits = take_be<std::uint64_t>();
        double d = 0.0;
        std::memcpy(&d, &bits, sizeof d);
        return sink_.real(d);
      }
      case 0xCC: return sink_.integer(take_u8());
      case 0xCD: return sink_.integer(take_be<std::uint16_t>());
      case 0xCE: return sink_.integer(take_be<std::uint32_t>());
      case 0xCF:  // uint64 above INT64_MAX wraps, as Json(uint64_t) does
        return sink_.integer(
            static_cast<std::int64_t>(take_be<std::uint64_t>()));
      case 0xD0:
        return sink_.integer(
            static_cast<std::int64_t>(static_cast<std::int8_t>(take_u8())));
      case 0xD1:
        return sink_.integer(static_cast<std::int64_t>(
            static_cast<std::int16_t>(take_be<std::uint16_t>())));
      case 0xD2:
        return sink_.integer(static_cast<std::int64_t>(
            static_cast<std::int32_t>(take_be<std::uint32_t>())));
      case 0xD3:
        return sink_.integer(
            static_cast<std::int64_t>(take_be<std::uint64_t>()));
      case 0xD9: return sink_.string(take_str(take_u8()));
      case 0xDA: return sink_.string(take_str(take_be<std::uint16_t>()));
      case 0xDB: return sink_.string(take_str(take_be<std::uint32_t>()));
      case 0xDC: return decode_array(take_be<std::uint16_t>());
      case 0xDD: return decode_array(take_be<std::uint32_t>());
      case 0xDE: return decode_map(take_be<std::uint16_t>());
      case 0xDF: return decode_map(take_be<std::uint32_t>());
      default: fail("unsupported tag");
    }
  }

  std::size_t position() const { return pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  Sink& sink_;
  std::size_t pos_ = 0;

  std::uint8_t take_u8() {
    if (pos_ >= bytes_.size()) fail("truncated input");
    return bytes_[pos_++];
  }

  template <typename T>
  T take_be() {
    if (sizeof(T) > bytes_.size() - pos_) fail("truncated input");
    T v{};
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    if constexpr (std::endian::native == std::endian::little) {
      if constexpr (sizeof(T) == 2) v = __builtin_bswap16(v);
      if constexpr (sizeof(T) == 4) v = __builtin_bswap32(v);
      if constexpr (sizeof(T) == 8) v = __builtin_bswap64(v);
    }
    return v;
  }

  std::string_view take_str(std::size_t n) {
    if (n > bytes_.size() - pos_) fail("truncated string");
    const std::string_view s(
        reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  void decode_array(std::size_t n) {
    // Found by fuzz_trace_formats: the element count is untrusted, and
    // every element occupies at least one input byte — reject a count
    // the remaining input cannot possibly satisfy *before* the reserve,
    // or a 6-byte document demands a multi-GiB allocation.
    if (n > bytes_.size() - pos_) fail("truncated array");
    sink_.begin_array(n);
    for (std::size_t i = 0; i < n; ++i) decode_value();
    sink_.end_array();
  }

  void decode_map(std::size_t n) {
    // Same bound as decode_array; a map entry is at least two bytes
    // (key tag + value tag).
    if (n > (bytes_.size() - pos_) / 2) fail("truncated map");
    sink_.begin_object(n);
    for (std::size_t i = 0; i < n; ++i) {
      sink_.key(take_key());
      decode_value();
    }
    sink_.end_object();
  }

  /// A map key; only the string tags are keys.
  std::string_view take_key() {
    const std::uint8_t tag = take_u8();
    if ((tag & 0xE0) == 0xA0) return take_str(tag & 0x1F);
    switch (tag) {
      case 0xD9: return take_str(take_u8());
      case 0xDA: return take_str(take_be<std::uint16_t>());
      case 0xDB: return take_str(take_be<std::uint32_t>());
      default: fail("non-string map key");
    }
  }
};

}  // namespace

void encode_to(const Json& value, std::vector<std::uint8_t>& out) {
  if (value.is_null()) {
    put_u8(out, 0xC0);
  } else if (value.is_bool()) {
    put_u8(out, value.as_bool() ? 0xC3 : 0xC2);
  } else if (value.is_int()) {
    encode_int(out, value.as_int());
  } else if (value.is_double()) {
    put_u8(out, 0xCB);
    const double d = value.as_double();
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    put_be(out, bits);
  } else if (value.is_string()) {
    encode_str(out, value.as_string());
  } else if (value.is_array()) {
    const auto& arr = value.as_array();
    const std::size_t n = arr.size();
    if (n < 16) {
      put_u8(out, static_cast<std::uint8_t>(0x90 | n));
    } else if (n <= 0xFFFF) {
      put_u8(out, 0xDC);
      put_be(out, static_cast<std::uint16_t>(n));
    } else {
      put_u8(out, 0xDD);
      put_be(out, static_cast<std::uint32_t>(n));
    }
    for (const auto& v : arr) encode_to(v, out);
  } else {
    const auto& obj = value.as_object();
    const std::size_t n = obj.size();
    if (n < 16) {
      put_u8(out, static_cast<std::uint8_t>(0x80 | n));
    } else if (n <= 0xFFFF) {
      put_u8(out, 0xDE);
      put_be(out, static_cast<std::uint16_t>(n));
    } else {
      put_u8(out, 0xDF);
      put_be(out, static_cast<std::uint32_t>(n));
    }
    for (const auto& [k, v] : obj) {
      encode_str(out, k);
      encode_to(v, out);
    }
  }
}

std::vector<std::uint8_t> encode(const Json& value) {
  std::vector<std::uint8_t> out;
  encode_to(value, out);
  return out;
}

Json decode(std::span<const std::uint8_t> bytes, std::size_t& consumed) {
  JsonBuilder builder;
  Decoder<JsonBuilder> d(bytes, builder);
  d.decode_value();
  consumed = d.position();
  return builder.take();
}

void decode_fields(std::span<const std::uint8_t> bytes, std::size_t& consumed,
                   FieldCapture& fields) {
  fields.begin_document(
      {reinterpret_cast<const char*>(bytes.data()), bytes.size()});
  Decoder<FieldCapture> d(bytes, fields);
  d.decode_value();
  consumed = d.position();
}

Json decode(std::span<const std::uint8_t> bytes) {
  std::size_t consumed = 0;
  Json v = decode(bytes, consumed);
  if (consumed != bytes.size()) fail("trailing bytes after document");
  return v;
}

std::vector<Json> decode_stream(std::span<const std::uint8_t> bytes) {
  std::vector<Json> docs;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    std::size_t consumed = 0;
    docs.push_back(decode(bytes.subspan(offset), consumed));
    offset += consumed;
  }
  return docs;
}

}  // namespace ftio::util::msgpack
