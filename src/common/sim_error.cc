#include "common/sim_error.hh"

namespace vgiw
{

namespace
{

thread_local int panic_capture_depth = 0;

} // namespace

const char *
simErrorKindName(SimErrorKind kind)
{
    switch (kind) {
      case SimErrorKind::None: return "none";
      case SimErrorKind::Config: return "config";
      case SimErrorKind::Compile: return "compile";
      case SimErrorKind::Functional: return "functional";
      case SimErrorKind::Golden: return "golden";
      case SimErrorKind::Watchdog: return "watchdog";
      case SimErrorKind::Internal: return "internal";
      case SimErrorKind::WorkerCrash: return "worker_crash";
    }
    return "?";
}

PanicCaptureScope::PanicCaptureScope()
{
    ++panic_capture_depth;
}

PanicCaptureScope::~PanicCaptureScope()
{
    --panic_capture_depth;
}

bool
PanicCaptureScope::active()
{
    return panic_capture_depth > 0;
}

} // namespace vgiw
