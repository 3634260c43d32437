/**
 * @file
 * The observability layer: named counters and scoped timing spans,
 * collected per sweep job, with zero overhead when disabled.
 *
 * End-of-run aggregates (RunStats) say *what* a config point cost;
 * they cannot say *where* the cycles went — which block drained how
 * many CVT vectors, how often the SIMT stack diverged, how long the
 * engine spent compiling versus replaying. This layer answers those
 * questions with two primitives, mirroring the per-mechanism
 * attribution the paper uses to explain its speedups:
 *
 *  - **counters** — named, ordered, deterministic numbers
 *    (`JobMetrics::add`/`set`). Replay is deterministic, so counter
 *    values are bit-identical across worker counts; they are what the
 *    `"metrics"` JSON object carries.
 *  - **spans** — scoped wall-clock intervals (`MetricSpan`) with a
 *    steady-clock begin/end, a thread tag and a nesting depth. Spans
 *    time host-side phases (trace / compile / replay / callback);
 *    they are inherently non-deterministic and are
 *    exported only to the Chrome-trace file, never into result JSON.
 *
 * **Sharding and determinism.** A `MetricsCollector` owns one
 * `JobMetrics` sink per sweep job, index-aligned with the submission
 * order (the same slot discipline as the engine's result vector).
 * Exactly one worker writes a given job's sink at a time, so sinks
 * need no locks, and collection — serialising counters, exporting
 * spans — walks the slots in submission order, making merged output
 * deterministic regardless of scheduling.
 *
 * **Zero overhead when disabled.** Core-model replay loops reach
 * their job's sink through a thread-local pointer
 * (`currentMetricSink()`), installed by the engine via a
 * `MetricSinkScope` for the duration of the job. With no collector
 * attached the pointer is null and every instrumentation site reduces
 * to one never-taken branch on a register value; `MetricSpan` against
 * a null sink takes no timestamp. bench_throughput's contract is that
 * the disabled path costs < 2% of sweep wall clock (in practice it is
 * unmeasurable).
 */

#ifndef VGIW_COMMON_METRICS_HH
#define VGIW_COMMON_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stat_set.hh"

namespace vgiw
{

/**
 * One closed timing span: a named steady-clock interval tagged with
 * the recording thread and its nesting depth within the job's sink.
 * Timestamps are steady-clock nanoseconds (an arbitrary epoch shared
 * by all spans of one process); the Chrome-trace exporter rebases
 * them to the earliest span it emits.
 */
struct SpanRecord
{
    std::string name;     ///< taxonomy name ("trace", "replay", ...)
    uint32_t depth = 0;   ///< 0 = top-level within the job
    uint64_t beginNs = 0; ///< steady-clock begin
    uint64_t endNs = 0;   ///< steady-clock end (>= beginNs)
    uint64_t threadTag = 0; ///< hashed std::thread::id of the recorder
};

/**
 * The per-job metric sink: ordered deterministic counters plus the
 * job's span log.
 *
 * Contract: a sink is written by exactly one thread at a time (the
 * worker that owns the job), so no member is synchronised. Counters
 * must be deterministic functions of the job definition — replay
 * statistics, never wall-clock or scheduling observables — because
 * they are serialised into result JSON whose bit-identity across
 * `--jobs 1` and `--jobs N` is tested. Anything timing-flavoured
 * belongs in a span.
 */
class JobMetrics
{
  public:
    /** Add @p value to counter @p name, creating it at 0 if absent. */
    void add(const std::string &name, double value)
    {
        counters_.add(name, value);
    }

    /** Overwrite counter @p name. */
    void set(const std::string &name, double value)
    {
        counters_.set(name, value);
    }

    const StatSet &counters() const { return counters_; }

    /**
     * Open a span: records the begin timestamp, the calling thread's
     * tag and the current nesting depth, and returns the span's index
     * for endSpan(). Prefer the RAII MetricSpan wrapper.
     */
    uint32_t beginSpan(const char *name);

    /** Close the span opened as @p index (sets its end timestamp). */
    void endSpan(uint32_t index);

    /** All spans opened so far, in begin order (closed or not). */
    const std::vector<SpanRecord> &spans() const { return spans_; }

    /**
     * Serialise the counters as one JSON object (`{"name":value,...}`,
     * insertion order, no whitespace) — the `"metrics"` field of a
     * result line. Deterministic: equal counters give equal bytes.
     */
    std::string countersJson() const;

  private:
    StatSet counters_;
    std::vector<SpanRecord> spans_;
    uint32_t depth_ = 0;
};

/**
 * RAII span: opens on construction, closes on destruction (including
 * unwinding — a watchdog throw mid-replay still closes the replay
 * span). A null sink makes both ends no-ops with no timestamp taken.
 */
class MetricSpan
{
  public:
    MetricSpan(JobMetrics *sink, const char *name) : sink_(sink)
    {
        if (sink_)
            index_ = sink_->beginSpan(name);
    }
    ~MetricSpan()
    {
        if (sink_)
            sink_->endSpan(index_);
    }
    MetricSpan(const MetricSpan &) = delete;
    MetricSpan &operator=(const MetricSpan &) = delete;

  private:
    JobMetrics *sink_;
    uint32_t index_ = 0;
};

/**
 * The current thread's metric sink, or nullptr when metrics are
 * disabled. Core-model replay loops read this once at entry; a null
 * result means every instrumentation site must be skipped (and costs
 * one predictable branch).
 */
JobMetrics *currentMetricSink();

/**
 * Installs @p sink as the calling thread's currentMetricSink() for
 * the scope's lifetime, restoring the previous sink on exit. The
 * engine opens one around each job so the core model it invokes finds
 * the job's sink without any CoreModel API change.
 */
class MetricSinkScope
{
  public:
    explicit MetricSinkScope(JobMetrics *sink);
    ~MetricSinkScope();
    MetricSinkScope(const MetricSinkScope &) = delete;
    MetricSinkScope &operator=(const MetricSinkScope &) = delete;

  private:
    JobMetrics *previous_;
};

/**
 * Sweep-wide metrics: one JobMetrics slot per job, index-aligned with
 * the engine's submission order, plus the per-job labels (job keys)
 * the exporters report under.
 *
 * Ownership/threading contract: reset() is called once before the
 * worker pool starts; after that, slot i is written only by the
 * worker running job i (and, before the job is dispatched, by the
 * pool worker that fetches its traces, ordered before the dispatch
 * by the engine's mutex), and readers (exporters, tests) run after
 * ExperimentEngine::run returns. The collector itself takes no locks.
 */
class MetricsCollector
{
  public:
    /** Size the collector for a sweep, dropping prior contents. */
    void reset(size_t num_jobs);

    size_t size() const { return jobs_.size(); }

    JobMetrics &job(size_t index) { return jobs_[index]; }
    const JobMetrics &job(size_t index) const { return jobs_[index]; }

    /** Attach the label (the engine uses jobKey) exporters report. */
    void setLabel(size_t index, std::string label);
    const std::string &label(size_t index) const
    {
        return labels_[index];
    }

    /**
     * Export every closed span as a Chrome trace-event JSON document
     * (`chrome://tracing` / Perfetto "traceEvents" array of complete
     * "X" events; `ts`/`dur` in microseconds rebased to the earliest
     * span). Worker threads are renumbered 0..N-1 in dispatch order:
     * by the start of each thread's first span.
     */
    std::string chromeTraceJson() const;

  private:
    std::vector<JobMetrics> jobs_;
    std::vector<std::string> labels_;
};

} // namespace vgiw

#endif // VGIW_COMMON_METRICS_HH
