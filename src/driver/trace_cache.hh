/**
 * @file
 * Shared trace cache for sweep harnesses.
 *
 * A design-space sweep replays the same workload under many core
 * configurations, but the functional execution (interpreter run plus
 * golden check) is configuration-independent — doing it once per config
 * point is pure waste. The cache memoises TraceResults keyed by
 * (workload name, launch geometry, launch parameters) so each workload
 * is functionally executed exactly once per sweep, no matter how many
 * config points or worker threads request it.
 *
 * Thread-safety: get() may be called concurrently. The first requester
 * of a key performs the functional execution outside the cache lock;
 * concurrent requesters of the same key block on a shared future until
 * the traces are ready. Replays of the returned TraceSet are const and
 * can proceed in parallel.
 *
 * Lifetime: each cache entry owns the WorkloadInstance its TraceSet
 * borrows the Kernel from, and the returned TraceResult's shared_ptr
 * keeps the whole entry alive — results stay valid even after clear()
 * or cache destruction.
 */

#ifndef VGIW_DRIVER_TRACE_CACHE_HH
#define VGIW_DRIVER_TRACE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/sim_error.hh"
#include "interp/trace.hh"
#include "workloads/workload.hh"

namespace vgiw
{

class ArtifactStore;

/**
 * Outcome of functionally executing one workload: the traces the core
 * models replay plus the golden-check verdict. A failed golden check is
 * reported here rather than thrown, so sweep harnesses can skip the
 * workload and keep going.
 *
 * @warning The TraceSet borrows the Kernel of the WorkloadInstance it
 * was produced from (see TraceSet); when the traces come straight from
 * traceWorkload() the caller's instance must outlive them. Results
 * handed out by TraceCache own their kernel and carry no such
 * restriction.
 */
struct TraceResult
{
    std::shared_ptr<const TraceSet> traces;
    bool goldenPassed = false;
    std::string error;  ///< golden-check diagnostic when !goldenPassed
    /** Classification of the failure: Golden for a reference mismatch,
     * Functional when the execution itself failed; None on success. */
    SimErrorKind errorKind = SimErrorKind::None;

    /** Traces exist and the golden reference matched. */
    bool ok() const { return goldenPassed && traces != nullptr; }
};

/**
 * Functionally execute @p w on a copy of its memory image (the instance
 * stays reusable) and run its golden check; the traces drive the core
 * models. Golden-check failures are reported in the result, never
 * thrown.
 */
TraceResult traceWorkload(const WorkloadInstance &w);

/** Memoising, thread-safe front-end to traceWorkload(). */
class TraceCache
{
  public:
    /**
     * Attach a persistent artifact store (nullptr detaches). With a
     * store attached, a cache miss first tries to mmap-load previously
     * published traces — keyed by the kernel's IR content hash plus the
     * launch fingerprint, so the key survives workload renames — and a
     * fresh functional execution publishes its traces on success. A
     * store hit does NOT count as a functional execution. Call before
     * the first get(); the pointer must outlive the cache.
     */
    void setStore(ArtifactStore *store) { store_ = store; }
    /**
     * Traces for the named workload; @p make is invoked to build the
     * instance (its launch geometry/parameters complete the cache key).
     * The functional execution runs at most once per key.
     *
     * When @p nameIsUnique is true the caller promises that, until the
     * next resetNameMemo()/clear(), @p name fully determines the
     * instance @p make builds; repeat gets for the name then skip
     * make() entirely. The engine can promise this per sweep (its
     * jobKey rule requires unique labels for custom makes within one
     * run) and resets the memo at the start of each run; ad-hoc
     * callers that reuse a name across launches must leave it false.
     */
    TraceResult get(const std::string &name,
                    const std::function<WorkloadInstance()> &make,
                    bool nameIsUnique = false);

    /** Convenience overload for registry entries. */
    TraceResult get(const WorkloadEntry &entry);

    /**
     * The cache key for a (workload, launch) pair — workload name plus
     * launch geometry and parameter bits. Public so other per-kernel
     * caches (the CompileCache) can key on the same kernel identity.
     */
    static std::string keyFor(const std::string &name,
                              const LaunchParams &launch);

    /** Number of functional executions performed (cache misses). */
    uint64_t functionalExecutions() const { return execs_.load(); }

    /** Number of distinct (workload, launch) keys seen. */
    size_t size() const;

    /** Drop all entries; outstanding TraceResults remain valid. */
    void clear();

    /**
     * Forget the name->key memo while keeping the traces. The
     * nameIsUnique promise only holds within one sweep (labels are
     * unique per run, not per cache lifetime), so the engine calls
     * this at the start of each run(); a re-used label then rebuilds
     * its instance and is matched to cached traces by the full
     * launch-derived key, never by the stale name alone.
     */
    void resetNameMemo();

  private:
    /** Owns everything a cached TraceResult points into. */
    struct Entry
    {
        WorkloadInstance workload;  ///< owns the Kernel the traces borrow
        TraceResult result;
    };

    TraceResult resultFor(const std::shared_ptr<const Entry> &entry) const;

    /**
     * Try to satisfy a miss from the artifact store. On success fills
     * @p entry->result with store-backed traces (goldenPassed restored
     * from the blob) and returns true; any load or decode failure —
     * absent, corrupt, truncated, stale version — returns false and
     * the caller falls through to the functional execution.
     */
    bool tryLoadFromStore(Entry &entry, uint64_t contentHash,
                          const std::string &storeKey) const;

    mutable std::mutex mu_;
    std::map<std::string, std::shared_future<std::shared_ptr<const Entry>>>
        entries_;
    /**
     * Memo from workload name to full cache key, so nameIsUnique gets
     * skip make() (building the kernel and generating its inputs) once
     * traces are cached. Only populated and consulted for nameIsUnique
     * calls.
     */
    std::map<std::string, std::string> nameToKey_;
    std::atomic<uint64_t> execs_{0};
    ArtifactStore *store_ = nullptr;
};

} // namespace vgiw

#endif // VGIW_DRIVER_TRACE_CACHE_HH
