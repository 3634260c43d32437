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
 *  - **Workers** are fork()ed (no exec — they inherit the parsed job
 *    list, including custom make() closures, through the address
 *    space), each runs jobs one at a time through its own
 *    ExperimentEngine, and streams the engine-rendered JSON result rows
 *    back over a checksummed pipe protocol (common/subprocess).
 *  - **Supervision**: workers send heartbeats; the coordinator enforces
 *    a heartbeat timeout and an optional per-job wall-clock deadline.
 *    A worker that dies or goes silent is reaped via waitpid, its
 *    in-flight job is re-dispatched to a fresh worker until the crash
 *    budget is exhausted — then recorded as a terminal `worker_crash`
 *    row with attempts/quarantined fields — and the worker is respawned
 *    with exponential backoff.
 *  - **Work stealing**: jobs are partitioned round-robin into per-worker
 *    queues; an idle worker steals from the back of the longest other
 *    queue, so one straggler (or one crashing-and-backing-off shard)
 *    does not serialise the tail.
 *  - **Exactly-once**: a job is owned by at most one live worker at a
 *    time, and the coordinator is the journal's single writer. Job
 *    identity is ExperimentEngine::jobKey, the same key the resume
 *    path uses, so kill + resume semantics carry over unchanged.
 *  - **Byte-identity**: workers render rows with the same
 *    ResultTable::renderRow the single-process engine uses, and the
 *    coordinator re-emits those bytes verbatim (the restored-row
 *    mechanism) — so shard-mode --json output is byte-identical to a
 *    single-process run for every surviving job.
 *
 * The artifact store (PR 7) is opened before forking and shared
 * read/write across the fleet: publication is atomic-rename, loads
 * validate checksums, so concurrent workers warm-start from and feed
 * the same store — a warm sharded sweep traces and compiles nothing.
 *
 * The Result/Stats payload codecs, the worker main loop, the per-worker
 * job queues and the VGIW_TEST_FAULT=<segv|kill|abort|stall|mute|
 * badframe>:<job> hook are private to worker_pool.cc: the fork()ed
 * worker and the coordinator are the protocol's only two parties.
 */

#ifndef VGIW_DRIVER_WORKER_POOL_HH
#define VGIW_DRIVER_WORKER_POOL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sim_error.hh"
#include "driver/experiment_engine.hh"

namespace vgiw
{

/** One terminal sweep-point outcome as the coordinator saw it. */
struct ShardRow
{
    std::string workload;
    std::string arch;
    std::string configLabel;

    bool ok = false;        ///< ran in a worker and succeeded
    bool golden = false;    ///< golden check verdict
    bool ran = false;       ///< stats fields below are meaningful
    bool supported = false; ///< arch supports the kernel (ran rows)
    bool quarantined = false;
    bool restored = false;  ///< satisfied verbatim from the journal
    bool drained = false;   ///< never ran: interrupted before dispatch

    SimErrorKind errorKind = SimErrorKind::None;
    unsigned attempts = 1;  ///< dispatches (crashes) or in-worker tries
    std::string error;      ///< diagnostic; empty on success

    // The ASCII-report subset of RunStats (the full stats live in the
    // JSON line; shipping the whole RunStats over the pipe would just
    // duplicate the rendered row).
    uint64_t cycles = 0;
    double energySystemPj = 0.0;
    double l1MissRate = 0.0;

    /** The worker-rendered JSON-lines object (empty for drained rows);
     * byte-identical to what a single-process run emits for this job. */
    std::string jsonLine;
};

/** Timing-dependent supervision counters plus fleet-summed worker
 * stats. Counter *names* are a stable surface (pinned by tests);
 * values depend on scheduling and are excluded from bit-identity. */
struct SupervisorStats
{
    uint64_t restarts = 0;        ///< workers respawned after a death
    uint64_t crashes = 0;         ///< worker deaths with a job in flight
    uint64_t steals = 0;          ///< jobs taken from another shard's queue
    uint64_t heartbeatMisses = 0; ///< silent workers killed by timeout
    uint64_t corruptFrames = 0;   ///< checksum-bad records skipped in-stream

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

/** Coordinator knobs. Env overrides (applied in the constructor, for
 * tests and ops tuning): VGIW_SHARD_HEARTBEAT_MS,
 * VGIW_SHARD_HEARTBEAT_TIMEOUT_MS, VGIW_SHARD_BACKOFF_MS,
 * VGIW_SHARD_BACKOFF_CAP_MS. */
struct ShardOptions
{
    /** Worker process count (clamped to the job count; min 1). */
    unsigned shards = 2;

    /** In-worker retry policy for soft failures (watchdog/internal),
     * exactly as in single-process mode. */
    RetryPolicy retry{};

    /**
     * Total dispatches a job may consume across worker crashes before
     * it is quarantined as a terminal `worker_crash`. 0 derives the
     * budget from the retry policy: 1 + max(retry.maxAttempts - 1, 1),
     * i.e. at least one re-dispatch even without --retries — a single
     * environmental crash should not poison a job.
     */
    unsigned crashAttempts = 0;

    /** Per-job wall-clock deadline enforced by the *coordinator*
     * (SIGKILL on overrun); 0 disables. This is the backstop for jobs
     * whose worker is too wedged for its own watchdog to fire. */
    uint64_t jobDeadlineMs = 0;

    uint64_t heartbeatIntervalMs = 250;
    uint64_t heartbeatTimeoutMs = 10000;
    /** Base respawn backoff after a crash; the envelope doubles per
     * consecutive crash of the same shard with uniform jitter in
     * [d/2, d] (common/backoff.hh) so simultaneously-crashed workers
     * do not respawn in lockstep. */
    uint64_t respawnBackoffMs = 200;
    /** Documented backoff ceiling: no delay ever exceeds this. */
    uint64_t respawnBackoffCapMs = 10000;

    /** Workers collect per-job metrics (the "metrics" JSON object),
     * matching a single-process --metrics run byte-for-byte. */
    bool collectMetrics = false;

    /** Coordinator-owned journal (single writer); not owned. Restored
     * entries satisfy jobs without dispatching them. */
    ResultJournal *journal = nullptr;

    /** Shared artifact store, opened before forking; not owned. */
    ArtifactStore *artifactStore = nullptr;

    /** Graceful-drain flag (usually &drainFlag()); not owned. When it
     * trips, the coordinator forwards SIGTERM to every worker, stops
     * dispatching, waits for in-flight jobs and marks the rest
     * drained. */
    const std::atomic<bool> *stop = nullptr;

    /** Serialised progress callbacks, mirroring EngineOptions. */
    std::function<void(size_t index, const ShardRow &)> onResult;
    std::function<void(const ShardRow &)> onFailure;

    /**
     * Test hook, invoked *in the worker process* with the global job
     * index just before the job runs. Tests raise hard signals or mute
     * heartbeats here to exercise supervision without a CLI.
     */
    std::function<void(size_t index)> workerPreJob;
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

    /** The last run()'s rows in columnar form, rendered byte-identical
     * to a single-process sweep — the input for --json. */
    ResultTable &resultTable() { return table_; }

    const SupervisorStats &stats() const { return stats_; }

  private:
    ShardOptions opts_;
    ResultTable table_;
    SupervisorStats stats_;
};

/**
 * Test hook (worker-process side): suppress heartbeat frames so the
 * coordinator's heartbeat timeout path can be exercised without
 * wedging the worker for real.
 */
void muteWorkerHeartbeatsForTest(bool mute);

} // namespace vgiw

#endif // VGIW_DRIVER_WORKER_POOL_HH
