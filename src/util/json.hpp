#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ftio::util {

class FieldCapture;  // util/field_capture.hpp

/// Minimal JSON document model used for the TMIO JSON-Lines trace format
/// (Sec. II-A). Supports the JSON value kinds the traces need: null, bool,
/// integer, double, string, array, object. Objects preserve insertion order
/// so serialised traces are stable and diffable.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(std::int64_t i) : value_(i) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(std::uint64_t u) : value_(static_cast<std::int64_t>(u)) {}
  Json(double d) : value_(d) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  /// Builds an empty array / object.
  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  /// Typed accessors; throw ParseError on kind mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;  ///< accepts int or double
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object field lookup; throws ParseError when missing.
  const Json& at(std::string_view key) const;
  /// True when this is an object containing `key`.
  bool contains(std::string_view key) const;
  /// Field lookup with a fallback for optional keys.
  double get_double_or(std::string_view key, double fallback) const;
  std::int64_t get_int_or(std::string_view key, std::int64_t fallback) const;

  /// Appends to an array value.
  void push_back(Json v);
  /// Sets (or replaces) an object field.
  void set(std::string key, Json v);

  /// Compact single-line serialisation (JSON Lines friendly).
  std::string dump() const;

  /// Parses a complete JSON document; throws ParseError on malformed input
  /// or trailing garbage.
  static Json parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;
};

/// Walks one JSON document with Json::parse's grammar into `fields`,
/// keeping only the top-level keys the capture names. Throws ParseError
/// exactly where Json::parse would.
void parse_json_fields(std::string_view text, FieldCapture& fields);

}  // namespace ftio::util
