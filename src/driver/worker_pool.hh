/**
 * @file
 * The shard supervisor: process-isolated sweep execution.
 *
 * The in-process ExperimentEngine contains every *soft* fault — typed
 * exceptions, watchdog trips, captured panics — but a hard fault
 * (SIGSEGV, std::abort, an OOM kill, a runaway stall) still takes down
 * the whole process and every in-flight job. The supervisor moves job
 * execution into forked worker processes (`vgiw_run --suite --shards N`)
 * so a hard fault costs one worker, not the sweep:
 *
 *  - **One job loop**: the sweep bookkeeping — journal restore and
 *    append, the guarded onResult, the ResultTable — is
 *    ExperimentEngine's, exactly as in-process. The supervisor is only
 *    the engine's executor for pending jobs, and keeps the process
 *    concerns: spawn, heartbeat, deadline kill, reap and frame I/O.
 *  - **Workers** are fork()ed (no exec — they inherit the parsed job
 *    list, including custom make() closures, through the address
 *    space), each runs jobs one at a time through its own
 *    ExperimentEngine, and streams the engine-rendered JSON result rows
 *    back over a checksummed pipe protocol (common/subprocess).
 *  - **Dispatch**: one FIFO of pending jobs; whichever worker is idle
 *    takes its front. A job whose worker died goes back to the front
 *    and is re-dispatched to a fresh worker once (two dispatches in
 *    all), then recorded as a terminal, quarantined `worker_crash`
 *    row. This crash budget is the only re-run anywhere: the engine
 *    runs every job once. A dead worker is respawned on the next
 *    supervision tick.
 *  - **Supervision**: workers send heartbeats; the coordinator enforces
 *    a heartbeat timeout and an optional per-job wall-clock deadline.
 *    A frame the coordinator cannot use — a bad checksum, a Result
 *    that does not decode, names another job or reaches an idle
 *    worker — ends that worker like any other death.
 *  - **Byte-identity**: workers render rows with the same
 *    renderJobLine the in-process engine uses, and the
 *    coordinator re-emits those bytes verbatim — so shard-mode --json
 *    output is byte-identical to an in-process run for every surviving
 *    job, and journal lines do not depend on the mode.
 *
 * The artifact store is opened before forking and shared read/write
 * across the fleet: publication is atomic-rename, loads validate
 * checksums, so a warm sharded sweep traces and compiles nothing.
 * Tests fault workers through the FaultInjector in the engine options,
 * which every worker inherits armed (fault_injector.hh).
 */

#ifndef VGIW_DRIVER_WORKER_POOL_HH
#define VGIW_DRIVER_WORKER_POOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/experiment_engine.hh"

namespace vgiw
{

/**
 * One terminal sweep-point outcome of a sharded sweep: the engine's
 * JobResult plus the verdicts and the line callers read. For rows a
 * worker ran, `stats` holds the report subset (supported, cycles,
 * energy parts, L1 counts); the full stats are in jsonLine.
 */
struct ShardRow : JobResult
{
    bool ok = false;      ///< JobResult::ok(), which this hides
    bool golden = false;  ///< goldenPassed
    /** The JSON-lines object (empty for drained rows); byte-identical
     * to what an in-process run emits for this job. */
    std::string jsonLine;
};

/** Timing-dependent supervision counters plus fleet-summed worker
 * stats. Counter *names* are a stable surface (pinned by tests);
 * values depend on scheduling and are excluded from bit-identity. */
struct SupervisorStats
{
    uint64_t restarts = 0;        ///< workers respawned after a death
    uint64_t crashes = 0;         ///< worker deaths with a job in flight
    uint64_t heartbeatMisses = 0; ///< silent workers killed by timeout

    // Summed from each worker's final Stats frame (workers that crash
    // never report; these are a floor, used for the summary line).
    uint64_t functionalExecutions = 0;
    uint64_t compilations = 0;
    uint64_t storeHits = 0;
    uint64_t storeMisses = 0;
    uint64_t storeBytesMapped = 0;

    /** `{"supervisor.crashes":N,...}` — sorted keys, for --metrics. */
    std::string countersJson() const;
};

/** Coordinator knobs. */
struct ShardOptions
{
    /** Worker process count (clamped to the pending job count; min 1). */
    unsigned shards = 2;

    /**
     * The sweep options, with in-process meaning: journal (written by
     * the coordinator only), onResult (called in the coordinator) and
     * stop. Each worker runs a job once, as the in-process engine
     * does; the supervisor's fixed crash budget of two dispatches is
     * not an option. The artifact store and the injector are used by
     * every worker as they stand at its fork. A non-null `metrics`
     * makes each worker collect into its own collector, so lines carry
     * the same "metrics" object as in-process; the coordinator's
     * collector sees only the callback spans. `jobs` is unused.
     */
    EngineOptions engine{};

    /** Per-job wall-clock deadline enforced by the *coordinator*
     * (SIGKILL on overrun); 0 disables. This is the backstop for jobs
     * whose worker is too wedged for its own watchdog to fire. */
    uint64_t jobDeadlineMs = 0;

    uint64_t heartbeatIntervalMs = 250;
    uint64_t heartbeatTimeoutMs = 10000;
};

/** Forks, feeds and supervises a fleet of shard workers. */
class ShardSupervisor
{
  public:
    explicit ShardSupervisor(ShardOptions opts);

    /**
     * Run all @p jobs across the worker fleet; the returned vector is
     * index-aligned with submission order. Every row is terminal:
     * executed, restored, quarantined after crashes, or drained.
     */
    std::vector<ShardRow> run(const std::vector<ExperimentJob> &jobs);

    /** The last run()'s rows as JSON lines, byte-identical to an
     * in-process sweep — the input for --json. */
    ResultTable &resultTable() { return engine_.resultTable(); }

    const SupervisorStats &stats() const { return stats_; }

  private:
    /** The forked worker's body; returns its exit code. */
    int workerMain(int in_fd, int out_fd,
                   const std::vector<ExperimentJob> &jobs) const;

    /** The engine's executor: run @p pending on the worker fleet. */
    void supervise(const std::vector<ExperimentJob> &jobs,
                   const std::vector<size_t> &pending,
                   const ExperimentEngine::Deliver &deliver);

    ShardOptions opts_;
    ExperimentEngine engine_;  ///< the coordinator's sweep bookkeeping
    SupervisorStats stats_;
};

} // namespace vgiw

#endif // VGIW_DRIVER_WORKER_POOL_HH
