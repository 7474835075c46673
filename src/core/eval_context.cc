#include "src/core/eval_context.h"

#include <chrono>
#include <limits>

namespace coral {

namespace {
thread_local int64_t g_deadline_ns = 0;
}  // namespace

int64_t EvalClockNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ActiveEvalDeadlineNs() { return g_deadline_ns; }

bool EvalDeadlineExpired() {
  return g_deadline_ns != 0 && EvalClockNowNs() >= g_deadline_ns;
}

Status CheckEvalDeadline() {
  if (EvalDeadlineExpired()) {
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  return Status::OK();
}

ScopedEvalDeadline::ScopedEvalDeadline(int64_t ms)
    : prev_(g_deadline_ns), installed_(ms > 0) {
  if (!installed_) return;
  // Saturates: a deadline past the clock's range never expires.
  constexpr int64_t kNsPerMs = 1'000'000;
  const int64_t now = EvalClockNowNs();
  const int64_t max = std::numeric_limits<int64_t>::max();
  g_deadline_ns = ms > (max - now) / kNsPerMs ? max : now + ms * kNsPerMs;
}

ScopedEvalDeadline::~ScopedEvalDeadline() {
  if (installed_) g_deadline_ns = prev_;
}

}  // namespace coral
