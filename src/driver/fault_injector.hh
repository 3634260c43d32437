/**
 * @file
 * A fault-injection harness for the experiment engine.
 *
 * The fault-tolerance layer's promise — every failure lands in one
 * JobResult and the sweep completes — is only as good as its test
 * coverage, and most failure paths (a panic mid-replay, a stall long
 * enough to trip the deadline, a corrupted trace) never occur in a
 * healthy build. The injector makes them occur on demand: tests arm
 * named injection points with fail-at-job-N rules and the engine fires
 * each point as the job passes through the matching stage.
 *
 * Points mirror the engine's job pipeline:
 *
 *   trace    — before the TraceCache functional execution
 *   compile  — before the CompileCache place-and-route
 *   replay   — before CoreModel::run (after a compiled artifact exists)
 *   callback — inside the serialised onResult region, as if the
 *              user's callback itself threw
 *
 * Canned actions: Throw (an untyped std::runtime_error, exercising the
 * unclassified-exception paths), Panic (a real vgiw_panic, exercising
 * panic capture), Stall (a finite sleep, tripping wall-clock
 * deadlines), Corrupt (a stage-appropriate typed failure) and Raise (a
 * hard signal). Arbitrary faults can be armed as callables.
 *
 * Shard workers are fork()s of the coordinator, so an injector in the
 * sweep options is copied into every worker as armed at its fork: a
 * rule that kills its worker fires again on the job's re-dispatch,
 * because the fresh worker holds a fresh copy. Job indices are global
 * submission indices in both modes.
 *
 * Thread-safety: arming and firing may interleave across worker
 * threads; rules fire at most once.
 */

#ifndef VGIW_DRIVER_FAULT_INJECTOR_HH
#define VGIW_DRIVER_FAULT_INJECTOR_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace vgiw
{

/**
 * A process-kind test fault, parsed from the `VGIW_TEST_FAULT` grammar
 * `<segv|kill|abort|stall|mute>:<job>[:<ms>]` — the one way
 * CLI tests, which cannot pass an injector object, arm a fault.
 */
struct FaultSpec
{
    enum class Action : uint8_t { Raise, Stall };

    Action action = Action::Raise;
    /** Raise: segv/kill/abort are SIGSEGV/SIGKILL/SIGABRT; mute is
     * SIGSTOP — alive but silent, so only the heartbeat timeout can
     * catch it. */
    int signo = 0;
    size_t job = 0;      ///< global job index
    int millis = 30000;  ///< stall length; `:<ms>` is accepted on stall only

    /** Parse @p spec. A non-numeric or empty index, an unknown action
     * or trailing text arms nothing: nullopt, plus one stderr line. */
    static std::optional<FaultSpec> parse(std::string_view spec);
};

/** Test hook: armed faults the engine detonates at named points. */
class FaultInjector
{
  public:
    /** Stages of the engine's per-job pipeline. */
    enum class Point : uint8_t { Trace, Compile, Replay, Callback };

    static const char *pointName(Point p);

    /** Throw a plain std::runtime_error(@p message) at (@p p, job
     * @p job_index) — an unclassified failure. */
    void armThrow(Point p, size_t job_index, std::string message);

    /** vgiw_panic(@p message) at the point — an invariant violation,
     * captured by the engine's PanicCaptureScope. */
    void armPanic(Point p, size_t job_index, std::string message);

    /** Sleep @p millis (finite — the fault is the time, not a hang) at
     * the point, to push a job past its wall-clock deadline. */
    void armStall(Point p, size_t job_index, int millis);

    /**
     * raise(@p signo) at the point — a *hard* fault that kills the
     * process (SIGSEGV, SIGKILL, SIGABRT bypass C++ unwinding and the
     * PanicCaptureScope entirely). Only meaningful inside a shard
     * worker, where the supervisor observes the death and records the
     * job as a `worker_crash`.
     */
    void armRaise(Point p, size_t job_index, int signo);

    /** Arm @p spec: a raise or a stall at the replay point. */
    void arm(const FaultSpec &spec);

    /** A stage-appropriate typed corruption: functional-kind at trace,
     * compile-kind at compile, a panic at replay, a throw at callback. */
    void armCorrupt(Point p, size_t job_index);

    /** Arm an arbitrary fault; @p fault may throw, panic or sleep. */
    void arm(Point p, size_t job_index, std::function<void()> fault);

    /**
     * Engine hook: detonate the fault armed at (@p p, @p job_index), if
     * any. A rule fires once. May throw whatever the fault throws.
     */
    void fire(Point p, size_t job_index);

    /** Number of faults detonated so far. */
    uint64_t fired() const { return fired_.load(); }

  private:
    using Key = std::pair<uint8_t, size_t>;  // (point, job index)

    std::mutex mu_;
    std::map<Key, std::function<void()>> armed_;
    std::atomic<uint64_t> fired_{0};
};

} // namespace vgiw

#endif // VGIW_DRIVER_FAULT_INJECTOR_HH
