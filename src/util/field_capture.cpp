#include "util/field_capture.hpp"

#include "util/error.hpp"

namespace ftio::util {

std::int64_t FieldValue::as_int() const {
  if (kind != Kind::kInt) throw ParseError("record: field is not an integer");
  return int_value;
}

double FieldValue::as_double() const {
  if (kind == Kind::kInt) return static_cast<double>(int_value);
  if (kind != Kind::kDouble) throw ParseError("record: field is not a number");
  return double_value;
}

std::string_view FieldValue::as_string() const {
  if (kind != Kind::kString) throw ParseError("record: field is not a string");
  return string_value;
}

const FieldValue& FieldCapture::at(std::size_t i) const {
  if (!fields_[i].present()) {
    throw ParseError("record: missing key '" + std::string(keys_[i]) + "'");
  }
  return fields_[i];
}

}  // namespace ftio::util
