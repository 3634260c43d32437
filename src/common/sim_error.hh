/**
 * @file
 * The typed simulation-error taxonomy.
 *
 * A 1260-job design-space sweep must degrade per job, never per
 * process: every way a job can fail is classified into one of six
 * kinds, carried on the exception itself, recorded in the job's
 * result and emitted as `error_kind` in the JSON lines — so a sweep
 * report can distinguish "your config point is malformed" from "the
 * simulator hit an internal invariant violation" without string
 * matching.
 *
 *   config     — malformed SystemConfig / unknown workload or arch;
 *                rejected at job entry before any simulation state
 *   compile    — the kernel cannot be compiled for the architecture
 *                (e.g. a basic block that does not fit the MT-CGRF)
 *   functional — the functional execution (interpreter) failed
 *   golden     — the functional execution ran but mismatched the
 *                native golden reference
 *   watchdog   — replay exceeded its cycle ceiling or wall-clock
 *                deadline (livelock containment)
 *   internal   — an invariant violation (a captured vgiw_panic) or an
 *                unclassified exception escaping replay
 *   worker_crash — the worker *process* running the job died (SIGSEGV,
 *                abort, OOM kill, heartbeat silence); assigned by the
 *                shard supervisor, never by in-process code, since by
 *                definition the process that hit it cannot report it
 */

#ifndef VGIW_COMMON_SIM_ERROR_HH
#define VGIW_COMMON_SIM_ERROR_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace vgiw
{

/** Classification of a per-job simulation failure. */
enum class SimErrorKind : uint8_t
{
    None,        ///< no error (the JobResult default)
    Config,      ///< malformed configuration, unknown workload/arch
    Compile,     ///< kernel does not compile for the architecture
    Functional,  ///< functional execution failed
    Golden,      ///< golden reference mismatch
    Watchdog,    ///< replay cycle ceiling / wall-clock deadline hit
    Internal,    ///< captured panic or unclassified replay exception
    WorkerCrash, ///< worker process died mid-job (shard supervisor)
};

/** Stable lower-case name ("config", "watchdog", ...) for JSON. */
const char *simErrorKindName(SimErrorKind kind);

/** A typed, catchable simulation error. */
class SimError : public std::runtime_error
{
  public:
    SimError(SimErrorKind kind, const std::string &what)
        : std::runtime_error(what), kind_(kind)
    {}

    SimErrorKind kind() const { return kind_; }

  private:
    SimErrorKind kind_;
};

/**
 * A watchdog trip. Carries the partial progress counters at the moment
 * the replay was aborted, so the sweep report can still show how far
 * the job got (and how hot the livelock was spinning).
 */
class WatchdogError : public SimError
{
  public:
    WatchdogError(const std::string &what, uint64_t cycles,
                  uint64_t block_execs, uint64_t thread_ops)
        : SimError(SimErrorKind::Watchdog, what), cycles(cycles),
          dynBlockExecs(block_execs), dynThreadOps(thread_ops)
    {}

    uint64_t cycles;         ///< replay cycles at abort (model-defined)
    uint64_t dynBlockExecs;  ///< block executions replayed so far
    uint64_t dynThreadOps;   ///< thread operations replayed so far
};

/**
 * A vgiw_panic captured by a PanicCaptureScope instead of aborting the
 * process. Always SimErrorKind::Internal: a panic is by definition a
 * simulator bug, but one worker's bug must not kill the other 1259
 * jobs of a sweep.
 */
class SimPanic : public SimError
{
  public:
    explicit SimPanic(const std::string &what)
        : SimError(SimErrorKind::Internal, what)
    {}
};

/**
 * RAII guard: while at least one scope is alive on the current thread,
 * vgiw_panic / vgiw_assert throw SimPanic instead of std::abort(). The
 * experiment engine opens one around each job so an invariant
 * violation in a worker becomes a per-job `internal` failure.
 *
 * The scope is thread-local and nestable; it deliberately does NOT
 * leak into other threads — a panic on a thread nobody is guarding
 * still aborts, preserving fail-fast behaviour outside sweeps.
 */
class PanicCaptureScope
{
  public:
    PanicCaptureScope();
    ~PanicCaptureScope();
    PanicCaptureScope(const PanicCaptureScope &) = delete;
    PanicCaptureScope &operator=(const PanicCaptureScope &) = delete;

    /** Whether a scope is active on the calling thread. */
    static bool active();
};

} // namespace vgiw

#endif // VGIW_COMMON_SIM_ERROR_HH
