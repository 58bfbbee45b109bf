// Error handling for ParSecureML-Repro.
//
// The library throws typed exceptions derived from psml::Error; PSML_CHECK /
// PSML_REQUIRE are used at API boundaries and for internal invariants.
#pragma once

#include <stdexcept>
#include <string>

namespace psml {

// Base class of all exceptions thrown by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Invalid argument / shape mismatch at an API boundary.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

// Transport-level failure (peer closed, short read, malformed frame).
class NetworkError : public Error {
 public:
  explicit NetworkError(const std::string& what) : Error(what) {}
};

// A receive (or accept/connect) deadline expired before the peer delivered.
// Subclass of NetworkError so existing transport-failure handlers catch it;
// callers that want to distinguish "slow peer" from "dead peer" catch this
// first.
class TimeoutError : public NetworkError {
 public:
  explicit TimeoutError(const std::string& what) : NetworkError(what) {}
};

// Durable-storage failure: a checkpoint or persistence file is missing,
// unreadable, torn (CRC mismatch / truncated section), or a write to stable
// storage failed (ENOSPC, fsync error). Distinct from InvalidArgument —
// IOError means "the file system lied or broke", not "the caller passed the
// wrong thing" — so recovery code can fall back to an older checkpoint on
// IOError while still surfacing genuine API misuse.
class IOError : public Error {
 public:
  explicit IOError(const std::string& what) : Error(what) {}
};

// Protocol-level failure in the 2PC state machine (unexpected tag,
// inconsistent shares, corrupt compressed payload).
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error(what) {}
};

// Simulated-device failure (out of device memory, invalid stream use).
class DeviceError : public Error {
 public:
  explicit DeviceError(const std::string& what) : Error(what) {}
};

// Use of a concurrency primitive (ThreadPool, DepEngine) after it has been
// stopped — e.g. submit() racing destruction. Always a lifecycle bug in the
// caller, never data-dependent.
class ShutdownError : public Error {
 public:
  explicit ShutdownError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void throw_check_failed(const char* kind, const char* expr,
                                     const char* file, int line,
                                     const std::string& msg);
}  // namespace detail

// Internal invariant; failure indicates a bug in the library.
#define PSML_CHECK(cond)                                                     \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::psml::detail::throw_check_failed("check", #cond, __FILE__, __LINE__, \
                                         "");                                \
    }                                                                        \
  } while (0)

#define PSML_CHECK_MSG(cond, msg)                                            \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::psml::detail::throw_check_failed("check", #cond, __FILE__, __LINE__, \
                                         (msg));                             \
    }                                                                        \
  } while (0)

// Precondition on user-supplied arguments; throws InvalidArgument.
#define PSML_REQUIRE(cond, msg)                                              \
  do {                                                                       \
    if (!(cond)) {                                                           \
      throw ::psml::InvalidArgument(std::string("requirement failed: ") +    \
                                    #cond + " — " + (msg));                  \
    }                                                                        \
  } while (0)

}  // namespace psml
