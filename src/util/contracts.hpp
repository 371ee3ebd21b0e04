#pragma once

#include <cstdio>
#include <cstdlib>

/// Contract macros for invariants whose violation is a bug in this
/// library (or its caller breaking a documented layout contract), not a
/// recoverable input error. They complement util::expect, which stays
/// the tool for validating untrusted input at public API boundaries and
/// throws a catchable InvalidArgument: a contract failure prints the
/// violated condition with its source location and aborts, so Debug and
/// sanitizer CI legs turn latent corruption (a planar lane shorter than
/// the plan, a step function whose boundaries stopped increasing, a
/// detector verdict claiming a period of zero) into an immediate,
/// attributable failure instead of a downstream miscomputation.
///
///  - FTIO_ASSERT(cond): internal invariant, condition text is the
///    message.
///  - FTIO_CONTRACT(cond, msg): API-boundary contract with a
///    human-readable explanation (the macro of choice where the
///    condition alone would not tell a caller what they violated).
///
/// Both are active when FTIO_ENABLE_CONTRACTS is defined — the build
/// system defines it for Debug and all sanitizer configurations — and
/// compile to nothing in Release, so contract checks may sit on hot
/// paths as long as the *expression* is cheap to write, not to run. In
/// Release the condition sits in an unevaluated sizeof: nothing runs,
/// but a variable read only by a contract still counts as used.

#if defined(FTIO_ENABLE_CONTRACTS)

namespace ftio::util::detail {
[[noreturn]] inline void contract_failed(const char* kind, const char* cond,
                                         const char* message,
                                         const char* file, int line) {
  std::fprintf(stderr, "%s:%d: %s violated: %s%s%s\n", file, line, kind,
               cond, message[0] != '\0' ? " — " : "", message);
  std::abort();
}
}  // namespace ftio::util::detail

#define FTIO_ASSERT(cond)                                               \
  ((cond) ? static_cast<void>(0)                                        \
          : ::ftio::util::detail::contract_failed("FTIO_ASSERT", #cond, \
                                                  "", __FILE__, __LINE__))

#define FTIO_CONTRACT(cond, msg)                                 \
  ((cond) ? static_cast<void>(0)                                 \
          : ::ftio::util::detail::contract_failed(               \
                "FTIO_CONTRACT", #cond, msg, __FILE__, __LINE__))

#else  // release: compiled out, condition not evaluated

#define FTIO_ASSERT(cond) static_cast<void>(sizeof(!(cond)))
#define FTIO_CONTRACT(cond, msg) static_cast<void>(sizeof(!(cond)))

#endif
