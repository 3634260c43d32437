/**
 * @file
 * Cooperative replay watchdogs.
 *
 * A timing model's scheduler loop (the VGIW BBS drain loop, the Fermi
 * issue loop, the SGMF injection loop) can livelock on a buggy kernel
 * or a pathological configuration; without a deadline that hangs one
 * sweep worker forever. The watchdog gives every replay two ceilings:
 *
 *  - maxReplayCycles: a model-cycle budget, checked on every poll —
 *    deterministic, so a tripped job trips identically on every run;
 *  - deadlineMs: a wall-clock deadline, checked every 1024 polls (a
 *    steady_clock read is ~20 ns; the mask keeps the healthy-path cost
 *    of polling at a compare-and-branch).
 *
 * Both are cooperative: the replay loop calls poll() once per scheduled
 * unit of work and the watchdog throws a WatchdogError — carrying the
 * partial cycle/op counters — when a ceiling is exceeded. The
 * experiment engine records it as a `watchdog`-kind job failure and the
 * sweep keeps going.
 */

#ifndef VGIW_COMMON_WATCHDOG_HH
#define VGIW_COMMON_WATCHDOG_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/sim_error.hh"

namespace vgiw
{

/** Replay ceilings; all disabled by default (zero = unlimited). */
struct WatchdogConfig
{
    /** Abort the replay after this many model cycles (0 = unlimited). */
    uint64_t maxReplayCycles = 0;

    /** Abort the replay past this wall-clock budget (0 = no deadline;
     * a budget past the clock's range never fires). */
    double deadlineMs = 0.0;

    /**
     * Deadline anchor. Default (epoch) means the budget starts when the
     * replay's Watchdog is constructed; the experiment engine re-anchors
     * it at job entry so time spent tracing/compiling/stalled counts
     * against the same per-job budget.
     */
    std::chrono::steady_clock::time_point anchor{};
};

/** Per-replay watchdog state; construct at replay entry, poll in the
 * scheduler loop. The message is built only when a ceiling trips, so
 * a disabled watchdog allocates nothing. @p arch and @p kernel must
 * outlive it. */
class Watchdog
{
  public:
    Watchdog(const WatchdogConfig &cfg, std::string_view arch,
             std::string_view kernel)
        : maxCycles_(cfg.maxReplayCycles), arch_(arch), kernel_(kernel)
    {
        using Clock = std::chrono::steady_clock;
        if (cfg.deadlineMs > 0) {
            const auto anchor = cfg.anchor == Clock::time_point{}
                                    ? Clock::now()
                                    : cfg.anchor;
            const std::chrono::duration<double, std::milli> budget(
                cfg.deadlineMs);
            // A budget that reaches (within a second's rounding margin)
            // past the last time point the clock can hold never expires:
            // adding it would overflow and fire at once.
            if (budget < Clock::time_point::max() - anchor -
                             std::chrono::seconds(1)) {
                deadline_ = anchor +
                            std::chrono::duration_cast<Clock::duration>(budget);
                hasDeadline_ = true;
            }
        }
    }

    /**
     * Check the ceilings against the replay's progress counters; throws
     * WatchdogError (carrying them) when one is exceeded. @p cycles is
     * the model's own cycle count — for SGMF, whose loop is not
     * cycle-stepped, the caller passes its issue-cycle proxy.
     */
    void
    poll(uint64_t cycles, uint64_t block_execs, uint64_t thread_ops)
    {
        if (maxCycles_ && cycles > maxCycles_) {
            throw WatchdogError(
                context() + ": watchdog: replay exceeded " +
                    std::to_string(maxCycles_) + " cycles (at " +
                    std::to_string(cycles) + " cycles, " +
                    std::to_string(block_execs) + " block execs)",
                cycles, block_execs, thread_ops);
        }
        if (hasDeadline_ && (polls_++ & kDeadlineMask) == 0 &&
            std::chrono::steady_clock::now() > deadline_) {
            throw WatchdogError(
                context() + ": watchdog: wall-clock deadline exceeded (at " +
                    std::to_string(cycles) + " cycles, " +
                    std::to_string(block_execs) + " block execs)",
                cycles, block_execs, thread_ops);
        }
    }

  private:
    std::string
    context() const
    {
        return std::string(arch_) + " replay of '" + std::string(kernel_) +
               "'";
    }

    /** Deadline checked on poll 0, 1024, 2048, ... */
    static constexpr uint64_t kDeadlineMask = 1023;

    uint64_t maxCycles_ = 0;
    bool hasDeadline_ = false;
    std::chrono::steady_clock::time_point deadline_{};
    uint64_t polls_ = 0;
    std::string_view arch_;
    std::string_view kernel_;
};

} // namespace vgiw

#endif // VGIW_COMMON_WATCHDOG_HH
