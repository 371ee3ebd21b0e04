#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace ftio::util {

/// Thrown when an FTIO API is called with arguments that violate its
/// preconditions (empty signals, non-positive sampling frequencies, ...).
class InvalidArgument : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when a trace file or encoded buffer cannot be decoded.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a filesystem operation fails part-way (short write, failed
/// fsync/close/rename, ENOSPC). Distinct from ParseError: the bytes were
/// fine, the device was not.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Precondition check helper: throws InvalidArgument with `message` when
/// `condition` is false. It runs in every build, so it also guards
/// per-boundary loops (StepFunction construction and splicing); internal
/// invariants that may compile away in Release use FTIO_ASSERT and
/// FTIO_CONTRACT (util/contracts.hpp).
///
/// Cost contract: a check that passes allocates nothing. The message is a
/// view, copied into a string only when the check fails. A message built
/// with `+` at the call site is still built on every call, so pass a
/// literal on any path that runs per request or per boundary.
inline void expect(bool condition, std::string_view message) {
  if (!condition) throw InvalidArgument(std::string(message));
}

}  // namespace ftio::util
