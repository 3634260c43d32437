#include "driver/fault_injector.hh"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "common/logging.hh"
#include "common/sim_error.hh"

namespace vgiw
{

const char *
FaultInjector::pointName(Point p)
{
    switch (p) {
      case Point::Trace: return "trace";
      case Point::Compile: return "compile";
      case Point::Replay: return "replay";
      case Point::Callback: return "callback";
    }
    return "?";
}

std::optional<FaultSpec>
FaultSpec::parse(std::string_view spec)
{
    static constexpr struct
    {
        std::string_view name;
        Action action;
        int signo;
    } kActions[] = {
        {"segv", Action::Raise, SIGSEGV}, {"kill", Action::Raise, SIGKILL},
        {"abort", Action::Raise, SIGABRT}, {"mute", Action::Raise, SIGSTOP},
        {"stall", Action::Stall, 0},
    };
    // A whole field of decimal digits, or nothing.
    auto number = [](std::string_view field, auto *out) {
        const char *end = field.data() + field.size();
        const auto [p, ec] = std::from_chars(field.data(), end, *out);
        return !field.empty() && ec == std::errc() && p == end;
    };

    FaultSpec f;
    const size_t c1 = spec.find(':');
    const auto *a = std::find_if(
        std::begin(kActions), std::end(kActions),
        [&](const auto &k) { return k.name == spec.substr(0, c1); });
    bool ok = a != std::end(kActions) && c1 != std::string_view::npos;
    if (ok) {
        f.action = a->action;
        f.signo = a->signo;
        const std::string_view rest = spec.substr(c1 + 1);
        const size_t c2 = rest.find(':');
        ok = number(rest.substr(0, c2), &f.job);
        if (ok && c2 != std::string_view::npos) {
            ok = f.action == Action::Stall &&
                 number(rest.substr(c2 + 1), &f.millis) && f.millis >= 0;
        }
    }
    if (!ok) {
        std::fprintf(stderr,
                     "VGIW_TEST_FAULT: ignoring malformed spec '%.*s' "
                     "(want <segv|kill|abort|stall|mute>:<job>"
                     "[:<ms>], ms on stall only)\n",
                     int(spec.size()), spec.data());
        return std::nullopt;
    }
    return f;
}

void
FaultInjector::armThrow(Point p, size_t job_index, std::string message)
{
    arm(p, job_index, [message = std::move(message)]() {
        throw std::runtime_error(message);
    });
}

void
FaultInjector::armPanic(Point p, size_t job_index, std::string message)
{
    arm(p, job_index,
        [message = std::move(message)]() { vgiw_panic(message); });
}

void
FaultInjector::armStall(Point p, size_t job_index, int millis)
{
    arm(p, job_index, [millis]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(millis));
    });
}

void
FaultInjector::armRaise(Point p, size_t job_index, int signo)
{
    arm(p, job_index, [signo]() { std::raise(signo); });
}

void
FaultInjector::arm(const FaultSpec &spec)
{
    switch (spec.action) {
      case FaultSpec::Action::Raise:
        armRaise(Point::Replay, spec.job, spec.signo);
        break;
      case FaultSpec::Action::Stall:
        armStall(Point::Replay, spec.job, spec.millis);
        break;
    }
}

void
FaultInjector::armCorrupt(Point p, size_t job_index)
{
    const std::string what = std::string("injected corruption at ") +
                             pointName(p) + " point";
    switch (p) {
      case Point::Trace:
        arm(p, job_index, [what]() {
            throw SimError(SimErrorKind::Functional, what);
        });
        break;
      case Point::Compile:
        arm(p, job_index, [what]() {
            throw SimError(SimErrorKind::Compile, what);
        });
        break;
      case Point::Replay:
        // Corrupted replay state surfaces as an invariant violation.
        arm(p, job_index, [what]() { vgiw_panic(what); });
        break;
      case Point::Callback:
        arm(p, job_index,
            [what]() { throw std::runtime_error(what); });
        break;
    }
}

void
FaultInjector::arm(Point p, size_t job_index, std::function<void()> fault)
{
    std::lock_guard<std::mutex> lock(mu_);
    armed_[Key(uint8_t(p), job_index)] = std::move(fault);
}

void
FaultInjector::fire(Point p, size_t job_index)
{
    std::function<void()> fault;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = armed_.find(Key(uint8_t(p), job_index));
        if (it == armed_.end())
            return;
        fault = std::move(it->second);
        armed_.erase(it);  // fired: later firings pass clean
    }
    fired_.fetch_add(1);
    fault();  // outside the lock: the fault may stall or rethrow
}

} // namespace vgiw
