#include "driver/retry_policy.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vgiw
{

bool
RetryPolicy::retryableKind(SimErrorKind kind)
{
    switch (kind) {
      case SimErrorKind::Watchdog:
      case SimErrorKind::Internal:
      // A crashed worker is environment-sensitive by definition: the
      // supervisor re-dispatches the job to a fresh process.
      case SimErrorKind::WorkerCrash:
        return true;
      case SimErrorKind::None:
      case SimErrorKind::Config:
      case SimErrorKind::Compile:
      case SimErrorKind::Functional:
      case SimErrorKind::Golden:
        return false;
    }
    return false;
}

unsigned
RetryPolicy::attemptBudget(SimErrorKind kind) const
{
    return kind == SimErrorKind::WorkerCrash ? std::max(maxAttempts, 2u)
                                             : maxAttempts;
}

bool
RetryPolicy::shouldRetry(SimErrorKind kind, unsigned attempt) const
{
    return attempt < attemptBudget(kind) && retryableKind(kind);
}

WatchdogConfig
RetryPolicy::escalate(const WatchdogConfig &base, unsigned attempt) const
{
    WatchdogConfig wd = base;
    wd.anchor = {};  // the engine re-anchors at (re)entry
    if (attempt <= 1)
        return wd;
    const double exp = double(attempt - 1);
    if (wd.maxReplayCycles) {
        const double scaled =
            double(wd.maxReplayCycles) * std::pow(cycleBudgetScale, exp);
        // Saturate rather than wrap: a huge escalation means
        // "effectively unlimited", not a tiny wrapped budget.
        wd.maxReplayCycles =
            scaled >= double(std::numeric_limits<uint64_t>::max())
                ? std::numeric_limits<uint64_t>::max()
                : uint64_t(scaled);
    }
    if (wd.deadlineMs > 0)
        wd.deadlineMs *= std::pow(deadlineScale, exp);
    return wd;
}

} // namespace vgiw
