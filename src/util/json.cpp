#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"
#include "util/field_capture.hpp"
#include "util/json_builder.hpp"

namespace ftio::util {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw ParseError("json: " + what);
}

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_double(std::string& out, double d) {
  if (d == 0.0 && std::signbit(d)) {
    out += "-0.0";  // %.17g prints "-0", which reads back as integer 0
  } else if (std::isfinite(d)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  } else {
    out += "null";  // JSON has no inf/nan; traces never contain them
  }
}

/// The one JSON grammar walker: reports every value it reads to `Sink`
/// (JsonBuilder for Json::parse, FieldCapture for trace records).
template <class Sink>
class Parser {
 public:
  Parser(std::string_view text, Sink& sink) : text_(text), sink_(sink) {}

  void parse_document() {
    parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
  }

 private:
  std::string_view text_;
  Sink& sink_;
  std::size_t pos_ = 0;
  std::string scratch_;  ///< decoded form of a string with escapes

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  char next() {
    char c = peek();
    ++pos_;
    return c;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  void expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      fail("invalid literal");
    }
    pos_ += lit.size();
  }

  void parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': parse_object(); return;
      case '[': parse_array(); return;
      case '"': sink_.string(parse_string()); return;
      case 't': expect_literal("true"); sink_.boolean(true); return;
      case 'f': expect_literal("false"); sink_.boolean(false); return;
      case 'n': expect_literal("null"); sink_.null(); return;
      default: parse_number(); return;
    }
  }

  /// The decoded string: a view into the input when it has no escapes,
  /// else into scratch_ (valid until the next parse_string).
  std::string_view parse_string() {
    if (next() != '"') fail("expected string");
    const std::size_t begin = pos_;
    while (true) {
      const char c = peek();
      if (c == '"') {
        ++pos_;
        return text_.substr(begin, pos_ - 1 - begin);
      }
      if (c == '\\') break;
      ++pos_;
    }
    std::string& out = scratch_;
    out.assign(text_.substr(begin, pos_ - begin));
    while (true) {
      char c = next();
      if (c == '"') break;
      if (c == '\\') {
        char esc = next();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("invalid \\u escape");
            }
            // Encode as UTF-8 (basic multilingual plane only; trace files
            // contain ASCII keys and paths).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: fail("invalid escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  void parse_number() {
    const std::size_t start = pos_;
    std::size_t end = pos_;
    if (end < text_.size() && text_[end] == '-') ++end;
    bool is_double = false;
    while (end < text_.size()) {
      const char c = text_[end];
      if (c >= '0' && c <= '9') {
        ++end;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++end;
      } else {
        break;
      }
    }
    pos_ = end;
    const std::string_view tok = text_.substr(start, end - start);
    if (tok.empty() || tok == "-") fail("invalid number");
    if (!is_double) {
      std::int64_t v = 0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec == std::errc() && p == tok.data() + tok.size()) {
        sink_.integer(v);
        return;
      }
    }
    double d = 0.0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc() || p != tok.data() + tok.size()) fail("invalid number");
    sink_.real(d);
  }

  void parse_array() {
    next();  // '['
    sink_.begin_array(0);
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      sink_.end_array();
      return;
    }
    while (true) {
      parse_value();
      skip_ws();
      char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    sink_.end_array();
  }

  void parse_object() {
    next();  // '{'
    sink_.begin_object(0);
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      sink_.end_object();
      return;
    }
    while (true) {
      skip_ws();
      sink_.key(parse_string());
      skip_ws();
      if (next() != ':') fail("expected ':' in object");
      parse_value();
      skip_ws();
      char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    sink_.end_object();
  }
};

}  // namespace

bool Json::as_bool() const {
  if (!is_bool()) fail("not a bool");
  return std::get<bool>(value_);
}

std::int64_t Json::as_int() const {
  if (is_int()) return std::get<std::int64_t>(value_);
  fail("not an integer");
  return 0;
}

double Json::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
  if (is_double()) return std::get<double>(value_);
  fail("not a number");
  return 0.0;
}

const std::string& Json::as_string() const {
  if (!is_string()) fail("not a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) fail("not an array");
  return std::get<Array>(value_);
}

Json::Array& Json::as_array() {
  if (!is_array()) fail("not an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) fail("not an object");
  return std::get<Object>(value_);
}

Json::Object& Json::as_object() {
  if (!is_object()) fail("not an object");
  return std::get<Object>(value_);
}

const Json& Json::at(std::string_view key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return v;
  }
  fail("missing key '" + std::string(key) + "'");
  static const Json null_json;
  return null_json;
}

bool Json::contains(std::string_view key) const {
  if (!is_object()) return false;
  for (const auto& [k, v] : as_object()) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

double Json::get_double_or(std::string_view key, double fallback) const {
  return contains(key) ? at(key).as_double() : fallback;
}

std::int64_t Json::get_int_or(std::string_view key,
                              std::int64_t fallback) const {
  return contains(key) ? at(key).as_int() : fallback;
}

void Json::push_back(Json v) { as_array().push_back(std::move(v)); }

void Json::set(std::string key, Json v) {
  auto& obj = as_object();
  for (auto& [k, existing] : obj) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj.emplace_back(std::move(key), std::move(v));
}

std::string Json::dump() const {
  std::string out;
  struct Visitor {
    std::string& out;
    void operator()(std::nullptr_t) const { out += "null"; }
    void operator()(bool b) const { out += b ? "true" : "false"; }
    void operator()(std::int64_t i) const { out += std::to_string(i); }
    void operator()(double d) const { append_double(out, d); }
    void operator()(const std::string& s) const { append_escaped(out, s); }
    void operator()(const Array& a) const {
      out.push_back('[');
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i) out.push_back(',');
        out += a[i].dump();
      }
      out.push_back(']');
    }
    void operator()(const Object& o) const {
      out.push_back('{');
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i) out.push_back(',');
        append_escaped(out, o[i].first);
        out.push_back(':');
        out += o[i].second.dump();
      }
      out.push_back('}');
    }
  };
  std::visit(Visitor{out}, value_);
  return out;
}

void JsonBuilder::put(Json v) {
  if (open_.empty()) {
    root_ = std::move(v);
  } else if (open_.back().is_array()) {
    open_.back().as_array().push_back(std::move(v));
  } else {
    open_.back().as_object().emplace_back(std::move(keys_.back()),
                                          std::move(v));
    keys_.pop_back();
  }
}

Json Json::parse(std::string_view text) {
  JsonBuilder builder;
  Parser<JsonBuilder>(text, builder).parse_document();
  return builder.take();
}

void parse_json_fields(std::string_view text, FieldCapture& fields) {
  fields.begin_document(text);
  Parser<FieldCapture>(text, fields).parse_document();
}

}  // namespace ftio::util
