/**
 * @file
 * The parallel experiment engine: the one way this repository runs a
 * workload. The figure benches and the BFS demo (through compare()),
 * the ablation binaries and vgiw_run in both its modes run on it.
 *
 * A sweep is a list of (workload × config × architecture) jobs. The
 * engine shards the list over a pool of std::jthread workers taking
 * jobs from one mutex-guarded queue; each job resolves its traces
 * through a shared TraceCache — so every workload is functionally
 * executed and golden-checked exactly once per sweep, not once per
 * config point — and replays them on the requested core model. Replay is const on a
 * shared immutable TraceSet, so concurrent replays of the same traces
 * are safe. With more than one worker the pool fetches each
 * workload's traces once and dispatches a job as soon as its
 * workload's fetch returns, longest-first by the size of those traces
 * (see longestFirst), so the biggest replays do not start last
 * and no replay waits for an unrelated workload's trace.
 *
 * Determinism: results are written into a slot per job, so the output
 * vector preserves submission order regardless of worker count, and the
 * replayed statistics are bit-identical to a serial run (replay has no
 * cross-job state).
 *
 * Failure isolation: every way a job can fail — malformed config,
 * uncompilable kernel, functional/golden failure, watchdog trip, even
 * an invariant violation (vgiw_panic) inside replay — is recorded in
 * that job's result as a typed SimErrorKind (and reported through the
 * result callback) and the sweep keeps going. Each job runs under a
 * PanicCaptureScope, its config is validated before any simulation
 * state is built, and the user callback is guarded so a throwing
 * observer cannot terminate a worker thread. One broken sweep point
 * never aborts the process. Each job runs exactly once: a replay is a
 * deterministic function of (traces, compiled artifact, config), so
 * running it again would reproduce the failure; a job that needs a
 * larger budget gets it from its config's watchdog.
 *
 * Durability: with a ResultJournal attached, every terminal JobResult
 * is fsync'd to disk (keyed by jobKey) before the sweep moves on, and
 * a resumed engine skips jobs whose keys the journal already holds —
 * their slots are satisfied verbatim from the journal, so the merged
 * output of a killed-and-resumed sweep is bit-identical to an
 * uninterrupted one. A stop flag (usually &drainFlag(), set by
 * SIGINT/SIGTERM) drains the pool gracefully: no new jobs are
 * dequeued, in-flight jobs finish or trip their watchdogs, and
 * undispatched slots come back marked `drained`.
 */

#ifndef VGIW_DRIVER_EXPERIMENT_ENGINE_HH
#define VGIW_DRIVER_EXPERIMENT_ENGINE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "common/sim_error.hh"
#include "driver/compile_cache.hh"
#include "driver/fault_injector.hh"
#include "driver/core_model.hh"
#include "driver/result_journal.hh"
#include "driver/result_table.hh"
#include "driver/run_stats.hh"
#include "driver/system_config.hh"
#include "driver/trace_cache.hh"
#include "workloads/workload.hh"

namespace vgiw
{

/** One point of a sweep: run one workload on one core configuration. */
struct ExperimentJob
{
    std::string workload;  ///< registry name, or a label for custom makes
    std::string arch = "vgiw";  ///< a knownArchitectures() name
    std::string configLabel;    ///< free-form config tag for reports
    SystemConfig config{};

    /**
     * Optional constructor for workloads outside the registry (synthetic
     * sweep kernels). When empty the registry is consulted by name.
     */
    std::function<WorkloadInstance()> make;
};

/** Outcome of one job. */
struct JobResult
{
    std::string workload;
    std::string arch;
    std::string configLabel;

    bool goldenPassed = false;
    /** Golden-check, lookup or model diagnostic; empty on success. */
    std::string error;
    /** Taxonomy classification of `error`; None on success. */
    SimErrorKind errorKind = SimErrorKind::None;
    /** Stats are valid: the core model actually replayed the traces. */
    bool ran = false;
    RunStats stats;

    /** Progress counters at the moment a watchdog aborted the replay
     * (valid only for errorKind == Watchdog). */
    struct PartialProgress
    {
        bool valid = false;
        uint64_t cycles = 0;
        uint64_t dynBlockExecs = 0;
        uint64_t dynThreadOps = 0;
    };
    PartialProgress partial;

    /** Dispatches consumed. The engine runs a job once; only the
     * shard supervisor sets more, re-dispatching a job whose worker
     * died. */
    unsigned attempts = 1;
    /** The shard supervisor gave up on the job after its workers
     * crashed on every dispatch. */
    bool quarantined = false;

    /** Satisfied verbatim from a resume journal, not executed. */
    bool restored = false;
    /** A pre-rendered JSON line that the result table re-emits
     * byte-for-byte: the journaled line of a restored job, or
     * the line a shard worker rendered. Empty for rows rendered from
     * the fields above. */
    std::string verbatimJson;

    /** Never dispatched: the sweep drained on a stop request before
     * this job started. Not journaled; a resume re-enqueues it. */
    bool drained = false;

    /**
     * Serialised deterministic counters (`{"name":value,...}`) from
     * the job's JobMetrics sink; empty unless a MetricsCollector was
     * attached. When present, the rendered row appends it as a
     * `"metrics"` object — so with metrics disabled the JSON stays
     * bit-identical to the metrics-free engine.
     */
    std::string metricsJson;

    bool ok() const { return ran && error.empty(); }
};

/** Results of one workload on every registered architecture. */
struct ArchComparison
{
    std::string workload;
    /** True only if every architecture's job ran cleanly (golden check
     * included); goldenError holds the first failing job's error. */
    bool goldenPassed = false;
    std::string goldenError;

    RunStats vgiw;
    RunStats fermi;
    RunStats sgmf;  ///< supported == false when SGMF cannot map it
    RunStats dice;  ///< statically scheduled CGRA (always supported)

    double
    speedupVsFermi() const
    {
        return vgiw.cycles ? double(fermi.cycles) / double(vgiw.cycles)
                           : 0.0;
    }

    double
    speedupVsSgmf() const
    {
        return sgmf.supported && vgiw.cycles
                   ? double(sgmf.cycles) / double(vgiw.cycles)
                   : 0.0;
    }

    /** Work/energy ratio vs Fermi (same work => inverse energy ratio). */
    double
    energyEfficiencyVsFermi() const
    {
        const double v = vgiw.energy.systemPj();
        return v > 0 ? fermi.energy.systemPj() / v : 0.0;
    }

    double
    energyEfficiencyVsSgmf() const
    {
        const double v = vgiw.energy.systemPj();
        return sgmf.supported && v > 0 ? sgmf.energy.systemPj() / v : 0.0;
    }

    /**
     * LVC accesses as a fraction of GPGPU RF accesses (Fig. 3). Both
     * sides are normalised to thread-word traffic: one vector RF access
     * delivers 32 threads' operands while one LVC access delivers a
     * single word, so the RF count (one access per warp, the paper's
     * counting rule) is scaled by the warp width.
     */
    double
    lvcToRfRatio() const
    {
        return fermi.rfAccesses
                   ? double(vgiw.lvcAccesses) /
                         (32.0 * double(fermi.rfAccesses))
                   : 0.0;
    }
};

/** Worker-pool and reporting knobs. */
struct EngineOptions
{
    EngineOptions() = default;
    explicit EngineOptions(unsigned worker_count) : jobs(worker_count) {}

    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    unsigned jobs = 0;

    /**
     * Invoked (serialised) as each job finishes, ok or failed, with the
     * job's index in the submission order — progress and failure
     * reporting for long sweeps (a failed job, `!r.ok()`, is skipped,
     * not fatal). Guarded: an exception it throws marks the job as an
     * `internal` failure instead of terminating the worker jthread (an
     * unguarded throw would std::terminate the process — exactly the
     * failure mode this engine exists to avoid).
     */
    std::function<void(size_t index, const JobResult &)> onResult;

    /**
     * Optional fault-injection harness (tests only); not owned. When
     * set, the engine fires the trace/compile/replay/callback points
     * as each job passes through them.
     */
    FaultInjector *injector = nullptr;

    /**
     * Optional durable result journal; not owned. Must be open
     * (create or openForResume) before run(). Every terminal result
     * is appended fsync'd; entries recovered by openForResume satisfy
     * matching jobs without executing them.
     */
    ResultJournal *journal = nullptr;

    /**
     * Optional per-job metrics collection; not owned. When set, the
     * engine sizes the collector to the job list (one JobMetrics slot
     * per job, labelled with its jobKey), wraps every pipeline stage
     * in a depth-0 span — `trace`, `compile`, `replay`, plus a
     * `callback` span around the serialised reporting — and installs
     * the job's sink as the worker's thread-local currentMetricSink()
     * so the core model's replay loop can emit per-block counters
     * without an API change. After run(), each executed (non-restored)
     * job's deterministic counters are serialised into
     * JobResult::metricsJson and the collector holds the span log for
     * Chrome-trace export. Null (the default) keeps every
     * instrumentation site at one never-taken branch.
     */
    MetricsCollector *metrics = nullptr;

    /**
     * Optional persistent artifact store; not owned. Must be open()
     * before run(). The engine mounts it under both sweep caches: a
     * cold sweep publishes every traced workload and compiled artifact,
     * a warm sweep satisfies them by mmap without a single functional
     * execution or compilation — and, because replay statistics are
     * deterministic functions of (traces, artifact, config), with
     * byte-identical result JSON. With metrics attached, each job
     * additionally reports `artifact_store.{hits,misses,bytes_mapped}`
     * provenance counters (entry-based, so deterministic across worker
     * counts).
     */
    ArtifactStore *artifactStore = nullptr;

    /**
     * Optional graceful-drain flag; not owned. When it becomes true
     * (a signal handler, another thread, a callback), workers stop
     * dequeueing: in-flight jobs finish (or trip their watchdogs) and
     * are journaled, and every undispatched job's slot is returned
     * with `drained == true`.
     */
    const std::atomic<bool> *stop = nullptr;
};

/**
 * The dispatch order of @p pending (job indices): descending
 * @p cost[i], ties kept in submission order. Jobs whose workload
 * failed to trace carry cost 0 and so go last; they fail fast anyway.
 * A pool dispatches its ready jobs by this rule, so this is the order
 * it runs them in once every one is ready.
 */
std::vector<size_t> longestFirst(const std::vector<size_t> &pending,
                                 const std::vector<uint64_t> &cost);

/** Parallel (workload × config × architecture) sweep executor. */
class ExperimentEngine
{
  public:
    explicit ExperimentEngine(EngineOptions opts = {}) : opts_(opts) {}

    /**
     * Run all @p jobs; the result vector is index-aligned with the
     * submission order regardless of scheduling.
     */
    std::vector<JobResult> run(const std::vector<ExperimentJob> &jobs);

    /**
     * @p workloads (registry names) × @p archs under one configuration,
     * workload-major — the job list behind compare() and
     * vgiw_run --workload.
     */
    static std::vector<ExperimentJob>
    suiteJobs(const std::vector<std::string> &workloads,
              const SystemConfig &cfg,
              const std::vector<std::string> &archs = knownArchitectures(),
              const std::string &configLabel = {});

    /** The full registry × @p archs — the job list behind --suite. */
    static std::vector<ExperimentJob>
    suiteJobs(const SystemConfig &cfg,
              const std::vector<std::string> &archs = knownArchitectures(),
              const std::string &configLabel = {});

    /**
     * Every workload in @p workloads (registry names) on every
     * registered architecture under @p cfg, one run() over all of them,
     * assembled into ArchComparisons in the order given. A workload
     * any of whose jobs fails — golden check, replay, watchdog, panic
     * — is reported via onResult and returned with goldenPassed ==
     * false and goldenError set to its first failing job's error; it is
     * never thrown.
     */
    std::vector<ArchComparison>
    compare(const std::vector<std::string> &workloads,
            const SystemConfig &cfg = {});

    /** The sweep-wide trace cache (one functional execution per key). */
    TraceCache &traceCache() { return cache_; }

    /** The sweep-wide compiled-kernel cache (one compile per
     * (architecture compile slice, kernel) pair). */
    CompileCache &compileCache() { return ccache_; }

    /**
     * The last run()'s results as rendered JSON lines — every row
     * filled (executed, restored and drained alike). Valid until the
     * next run(). This is the preferred way to serialise a sweep: the
     * journal appended these same lines, so the artifact cannot
     * diverge from the journal.
     */
    ResultTable &resultTable() { return table_; }

    /**
     * Stable identity of one sweep point: workload × arch ×
     * configLabel × the config's jobFingerprint (compile + replay
     * keys). Two jobs with equal keys produce bit-identical results,
     * which is what lets a resume satisfy one from the other's
     * journal entry. Jobs with a custom `make` are tagged; their
     * workload label must be unique within the sweep.
     */
    static std::string jobKey(const ExperimentJob &job);

    /**
     * Order-sensitive FNV-1a hash over every job key — the sweep
     * definition hash pinned in the journal header. Any change to the
     * job list or to a statistics-relevant config knob changes it,
     * invalidating stale journals.
     */
    static std::string sweepHash(const std::vector<ExperimentJob> &jobs);

  private:
    friend class ShardSupervisor;

    /** Hands one pending job's terminal result to the sweep
     * bookkeeping; safe to call from several threads at once. */
    using Deliver = std::function<void(size_t index, JobResult &&result)>;

    /** Runs the @p pending job indices and delivers each terminal
     * result; a job it never delivers (a stop request came first)
     * stays `drained`. */
    using Executor = std::function<void(const std::vector<size_t> &pending,
                                        const Deliver &deliver)>;

    /**
     * The one sweep loop behind run() and ShardSupervisor::run: journal
     * restore, up-front reporting of restored rows, and for every
     * delivered result the guarded callbacks, the table fill and the
     * journal append. Only the execution of pending jobs is
     * @p executor's.
     */
    std::vector<JobResult> runWith(const std::vector<ExperimentJob> &jobs,
                                   const Executor &executor);

    /** Reset the per-sweep state (table, name memo, store mount,
     * metrics slots) for @p jobs. */
    void beginSweep(const std::vector<ExperimentJob> &jobs);

    /** One job, start to terminal result: runJob plus the metrics
     * serialisation. Pure of sweep bookkeeping, so a shard worker runs
     * exactly this. @p prepaid is the time a pool worker spent
     * fetching this job's traces on its behalf before dispatch; the
     * job's wall-clock deadline is charged for it. */
    JobResult execute(const ExperimentJob &job, size_t index,
                      std::chrono::steady_clock::duration prepaid = {});

    JobResult runJob(const ExperimentJob &job, size_t index,
                     std::chrono::steady_clock::duration prepaid);
    /** The multi-worker executor of run(): each worker takes the
     * next workload fetch while one is left, else the first ready job
     * of @p pending in longestFirst order, else waits for a fetch to
     * return. */
    void runPool(const std::vector<ExperimentJob> &jobs,
                 const std::vector<size_t> &pending, unsigned workers,
                 const Deliver &deliver);
    /** Whether the stop flag asks the sweep to drain. */
    bool stopRequested() const
    {
        return opts_.stop && opts_.stop->load(std::memory_order_acquire);
    }
    /** Serialised onResult dispatch with the callback guard (and the
     * callback injection point) applied. */
    void report(size_t index, JobResult &result);

    EngineOptions opts_;
    TraceCache cache_;
    CompileCache ccache_;
    ResultTable table_;
};

} // namespace vgiw

#endif // VGIW_DRIVER_EXPERIMENT_ENGINE_HH
