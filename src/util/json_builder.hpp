#pragma once

// Internal to util/json.cpp and util/msgpack.cpp.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace ftio::util {

/// Walker sink (see util/field_capture.hpp) that assembles the Json
/// document behind Json::parse and msgpack::decode.
class JsonBuilder {
 public:
  void null() { put(Json(nullptr)); }
  void boolean(bool b) { put(Json(b)); }
  void integer(std::int64_t v) { put(Json(v)); }
  void real(double v) { put(Json(v)); }
  void string(std::string_view s) { put(Json(std::string(s))); }
  void begin_array(std::size_t hint) {
    Json::Array a;
    a.reserve(hint);
    open_.emplace_back(std::move(a));
  }
  void begin_object(std::size_t hint) {
    Json::Object o;
    o.reserve(hint);
    open_.emplace_back(std::move(o));
  }
  void key(std::string_view k) { keys_.emplace_back(k); }
  void end_array() { close(); }
  void end_object() { close(); }

  /// The finished document.
  Json take() { return std::move(root_); }

 private:
  void put(Json v);
  void close() {
    Json done = std::move(open_.back());
    open_.pop_back();
    put(std::move(done));
  }

  std::vector<Json> open_;         ///< containers still being filled
  std::vector<std::string> keys_;  ///< keys awaiting their value
  Json root_;
};

}  // namespace ftio::util
