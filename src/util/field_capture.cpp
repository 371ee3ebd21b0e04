#include "util/field_capture.hpp"

#include "util/error.hpp"

namespace ftio::util {

void throw_field_error(const char* message) { throw ParseError(message); }

void throw_missing_key(std::string_view key) {
  throw ParseError("record: missing key '" + std::string(key) + "'");
}

}  // namespace ftio::util
