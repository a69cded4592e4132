#ifndef REVERE_COMMON_STATUS_H_
#define REVERE_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace revere {

/// Error categories used across the REVERE library. The library does not
/// throw exceptions; every fallible operation returns a Status or a
/// Result<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kParseError,
  kInternal,
  /// A required participant (e.g. a PDMS peer) cannot be reached right
  /// now; the operation may succeed if retried later.
  kUnavailable,
  /// The operation's (simulated) time budget elapsed before completion.
  kDeadlineExceeded,
};

/// Returns a human-readable name for `code` ("Ok", "NotFound", ...).
const char* StatusCodeToString(StatusCode code);

/// Value-type result of a fallible operation: a code plus a contextual
/// message. Cheap to copy in the OK case (empty message).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Ok" or "<Code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

namespace internal {
/// Prints `status` and aborts: the outcome of reading an error Result's
/// value, in every build type.
[[noreturn]] void DieOnErrorValue(const Status& status);
}  // namespace internal

/// Either a value of type T or an error Status. Access to value() is only
/// legal when ok(); calling it on an error prints the status and aborts,
/// NDEBUG or not.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value; mirrors absl::StatusOr ergonomics.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from a non-OK status.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T& value() & {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` when this holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  void CheckOk() const {
    if (!ok()) [[unlikely]] internal::DieOnErrorValue(status_);
  }

  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status from an expression to the caller.
#define REVERE_RETURN_IF_ERROR(expr)                  \
  do {                                                \
    ::revere::Status _revere_status = (expr);         \
    if (!_revere_status.ok()) return _revere_status;  \
  } while (false)

/// Evaluates a Result<T> expression, propagating errors; on success binds
/// the unwrapped value to `lhs`.
#define REVERE_ASSIGN_OR_RETURN(lhs, expr)             \
  auto REVERE_CONCAT_(_revere_result, __LINE__) = (expr);             \
  if (!REVERE_CONCAT_(_revere_result, __LINE__).ok())                 \
    return REVERE_CONCAT_(_revere_result, __LINE__).status();         \
  lhs = std::move(REVERE_CONCAT_(_revere_result, __LINE__)).value()

#define REVERE_CONCAT_INNER_(a, b) a##b
#define REVERE_CONCAT_(a, b) REVERE_CONCAT_INNER_(a, b)

}  // namespace revere

#endif  // REVERE_COMMON_STATUS_H_
