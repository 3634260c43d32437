#include "common/signal_drain.hh"

#include <csignal>

namespace vgiw
{

namespace
{

std::atomic<bool> g_drain{false};
std::atomic<int> g_signal{0};

static_assert(std::atomic<bool>::is_always_lock_free,
              "the drain flag must be async-signal-safe");

extern "C" void
drainHandler(int sig)
{
    // Only lock-free atomic stores: anything else (locks, allocation,
    // stdio) is undefined in a signal handler.
    g_signal.store(sig, std::memory_order_relaxed);
    g_drain.store(true, std::memory_order_release);
}

} // namespace

void
installDrainHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = drainHandler;
    sigemptyset(&sa.sa_mask);
    // No SA_RESTART: a worker blocked in a slow syscall should see
    // EINTR and get back to its drain poll promptly.
    sa.sa_flags = 0;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

const std::atomic<bool> &
drainFlag()
{
    return g_drain;
}

bool
drainRequested()
{
    return g_drain.load(std::memory_order_acquire);
}

int
drainSignal()
{
    return g_signal.load(std::memory_order_relaxed);
}

void
resetDrainFlag()
{
    g_drain.store(false, std::memory_order_release);
    g_signal.store(0, std::memory_order_relaxed);
}

} // namespace vgiw
