#include "src/common/status.h"

#include <cstdio>
#include <cstdlib>

namespace revere {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "Ok";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "Ok";
  std::string out = StatusCodeToString(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

namespace internal {

void DieOnErrorValue(const Status& status) {
  std::fprintf(stderr, "Result::value() called on an error: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal

}  // namespace revere
