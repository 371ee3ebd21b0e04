#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ftio::util {

// The JSON parser (util/json.cpp) and the MessagePack decoder
// (util/msgpack.cpp) are each one grammar walker that reports what it reads
// to a *sink* through these events:
//
//   null()  boolean(bool)  integer(int64_t)  real(double)
//   string(string_view)    key(string_view)
//   begin_array(hint)  end_array()  begin_object(hint)  end_object()
//
// A string_view passed to string()/key() is only valid during the call.
// `hint` is the element count when the format states it up front
// (MessagePack) and 0 otherwise. Two sinks exist: JsonBuilder assembles a
// Json document (Json::parse, msgpack::decode) and FieldCapture keeps a
// few top-level fields of a record without building anything.

/// The accessors below are inline, so applying a record makes no call on
/// the success path; their failures throw util::ParseError through these.
[[noreturn]] void throw_field_error(const char* message);
[[noreturn]] void throw_missing_key(std::string_view key);

/// One top-level field captured by FieldCapture.
struct FieldValue {
  enum class Kind : std::uint8_t {
    kAbsent,
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kAbsent;
  std::int64_t int_value = 0;  ///< valid when kind == kInt
  double double_value = 0.0;   ///< valid when kind == kDouble
  /// Valid when kind == kString, until the capture's next document: a
  /// view into that document, or into `storage` when the walker decoded
  /// escapes.
  std::string_view string_value;
  std::string storage;

  bool present() const { return kind != Kind::kAbsent; }
  /// Typed accessors with Json's rules: as_double() accepts an integer,
  /// as_int() does not accept a double. Throw ParseError on mismatch.
  std::int64_t as_int() const {
    if (kind != Kind::kInt) {
      throw_field_error("record: field is not an integer");
    }
    return int_value;
  }
  double as_double() const {
    if (kind == Kind::kDouble) return double_value;
    if (kind != Kind::kInt) throw_field_error("record: field is not a number");
    return static_cast<double>(int_value);
  }
  std::string_view as_string() const {
    if (kind != Kind::kString) {
      throw_field_error("record: field is not a string");
    }
    return string_value;
  }
};

/// Walker sink that keeps the *first* occurrence of each of a fixed set of
/// top-level object keys (the rule Json::at applies to duplicate keys) and
/// discards every other value. The walker still validates the whole
/// document, so a capture succeeds exactly when Json::parse /
/// msgpack::decode would. Nothing is allocated per document once warm.
class FieldCapture {
 public:
  /// `keys` names the slots, in slot order; it must outlive the capture.
  explicit FieldCapture(std::span<const std::string_view> keys)
      : keys_(keys), fields_(keys.size()) {
    prefixes_.reserve(keys.size());
    for (const auto k : keys) prefixes_.push_back(prefix(k));
  }

  /// Forgets the previous document and starts one spanning `document`
  /// (the walkers call this first).
  void begin_document(std::string_view document) {
    for (auto& f : fields_) f.kind = FieldValue::Kind::kAbsent;
    document_ = document;
    root_ = FieldValue::Kind::kAbsent;
    depth_ = 0;
    pending_ = kNone;
  }

  /// True when the document was an object.
  bool is_object() const { return root_ == FieldValue::Kind::kObject; }
  /// Slot `i` (kind kAbsent when the key did not occur).
  const FieldValue& operator[](std::size_t i) const { return fields_[i]; }
  /// Slot `i`; throws ParseError when the key did not occur.
  const FieldValue& at(std::size_t i) const {
    if (!fields_[i].present()) throw_missing_key(keys_[i]);
    return fields_[i];
  }
  /// Slot `i` as an integer, or `fallback` when the key did not occur.
  std::int64_t get_int_or(std::size_t i, std::int64_t fallback) const {
    return fields_[i].present() ? fields_[i].as_int() : fallback;
  }

  // Walker events.
  void null() { take(FieldValue::Kind::kNull); }
  void boolean(bool) { take(FieldValue::Kind::kBool); }
  void integer(std::int64_t v) {
    if (FieldValue* f = take(FieldValue::Kind::kInt)) f->int_value = v;
  }
  void real(double v) {
    if (FieldValue* f = take(FieldValue::Kind::kDouble)) f->double_value = v;
  }
  void string(std::string_view s) {
    FieldValue* f = take(FieldValue::Kind::kString);
    if (f == nullptr) return;
    const std::less_equal<const char*> le;
    if (le(document_.data(), s.data()) &&
        le(s.data() + s.size(), document_.data() + document_.size())) {
      f->string_value = s;  // stays valid with the document
    } else {
      f->storage.assign(s);  // the walker's scratch buffer
      f->string_value = f->storage;
    }
  }
  void begin_array(std::size_t) {
    take(FieldValue::Kind::kArray);
    ++depth_;
  }
  void begin_object(std::size_t) {
    take(FieldValue::Kind::kObject);
    ++depth_;
  }
  void end_array() { --depth_; }
  void end_object() { --depth_; }
  void key(std::string_view k) {
    if (depth_ != 1) return;
    pending_ = kNone;
    const std::uint64_t p = prefix(k);
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (prefixes_[i] == p && keys_[i].size() == k.size() &&
          (k.size() <= 8 || keys_[i].substr(8) == k.substr(8))) {
        if (!fields_[i].present()) pending_ = i;
        return;
      }
    }
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// The first (up to) 8 bytes of `s` as a little-endian integer, so a
  /// key lookup compares one integer per slot instead of calling memcmp.
  /// Two overlapping loads cover 4-8 bytes; the overlap ORs equal bytes.
  static std::uint64_t prefix(std::string_view s) {
    const auto* p = reinterpret_cast<const unsigned char*>(s.data());
    const std::size_t n = s.size() < 8 ? s.size() : 8;
    if (n >= 4) {
      const std::uint64_t tail = load_le32(p + n - 4);
      return load_le32(p) | (tail << (8 * (n - 4)));
    }
    if (n == 0) return 0;
    return p[0] | (std::uint64_t{p[n / 2]} << (8 * (n / 2))) |
           (std::uint64_t{p[n - 1]} << (8 * (n - 1)));
  }
  static std::uint32_t load_le32(const unsigned char* p) {
    std::uint32_t v = 0;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big) {
      v = __builtin_bswap32(v);
    }
    return v;
  }

  /// Records a value of `kind` where it lands: the document root at depth
  /// 0, the pending slot at depth 1. Returns the slot to fill, if any.
  FieldValue* take(FieldValue::Kind kind) {
    if (depth_ == 0) {
      root_ = kind;
      return nullptr;
    }
    if (depth_ != 1 || pending_ == kNone) return nullptr;
    FieldValue& f = fields_[pending_];
    pending_ = kNone;
    f.kind = kind;
    return &f;
  }

  std::span<const std::string_view> keys_;
  std::vector<std::uint64_t> prefixes_;
  std::vector<FieldValue> fields_;
  std::string_view document_;
  FieldValue::Kind root_ = FieldValue::Kind::kAbsent;
  std::size_t depth_ = 0;
  std::size_t pending_ = kNone;
};

}  // namespace ftio::util
