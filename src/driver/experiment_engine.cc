#include "driver/experiment_engine.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/watchdog.hh"

namespace vgiw
{

namespace
{

/** The job's workload constructor: its own make(), else the
 * registry entry of its name; empty when neither exists. */
std::function<WorkloadInstance()>
makeOf(const ExperimentJob &job)
{
    if (job.make)
        return job.make;
    for (const auto &e : workloadRegistry())
        if (e.name == job.workload)
            return e.make;
    return {};
}

/**
 * The checks a job passes before it may touch simulation state: a
 * valid config, a known architecture and a resolvable workload.
 * Returns the config-kind diagnostic of the first failed check, or
 * empty when the job may trace.
 */
std::string
admissionError(const ExperimentJob &job)
{
    if (std::string msg = job.config.validate(job.arch); !msg.empty())
        return msg;
    if (!isKnownArchitecture(job.arch))
        return "unknown architecture '" + job.arch + "'";
    if (!makeOf(job))
        return "unknown workload '" + job.workload + "'";
    return {};
}

/** The one dispatch order: job @p a goes before job @p b when its
 * @p cost is higher, ties in submission (index) order. */
bool
dispatchesBefore(size_t a, size_t b, const std::vector<uint64_t> &cost)
{
    return cost[a] != cost[b] ? cost[a] > cost[b] : a < b;
}

} // namespace

std::vector<size_t>
longestFirst(const std::vector<size_t> &pending,
             const std::vector<uint64_t> &cost)
{
    std::vector<size_t> order = pending;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return dispatchesBefore(a, b, cost);
    });
    return order;
}

std::vector<JobResult>
ExperimentEngine::run(const std::vector<ExperimentJob> &jobs)
{
    return runWith(jobs, [&](const std::vector<size_t> &pending,
                             const Deliver &deliver) {
        unsigned workers = opts_.jobs ? opts_.jobs
                                      : std::thread::hardware_concurrency();
        if (workers == 0)
            workers = 1;
        if (size_t(workers) > pending.size())
            workers = unsigned(pending.size());
        if (workers > 1) {
            runPool(jobs, pending, workers, deliver);
            return;
        }
        // One worker keeps submission order and fetches no traces
        // ahead of their jobs, so single-threaded sweeps stay
        // trivially debuggable.
        for (size_t i : pending) {
            // Graceful drain: stop dequeueing; a job already past
            // this check runs to completion (or to its watchdog).
            if (stopRequested())
                break;
            deliver(i, execute(jobs[i], i));
        }
    });
}

void
ExperimentEngine::runPool(const std::vector<ExperimentJob> &jobs,
                          const std::vector<size_t> &pending,
                          unsigned workers, const Deliver &deliver)
{
    using Clock = std::chrono::steady_clock;

    // Plan the fetches. Jobs sharing a workload name share its traces
    // (the nameIsUnique promise), and the one that fetches them, its
    // payer, is the group's first admitted job in submission order —
    // which is also the group's first admitted job to be dispatched,
    // because the whole group becomes ready at once with one cost and
    // dispatchesBefore keeps equal costs in submission order. Jobs
    // that fail admission never trace, as in runJob.
    constexpr size_t kNone = ~size_t{0};
    std::vector<size_t> byName = pending;
    std::stable_sort(byName.begin(), byName.end(), [&](size_t a, size_t b) {
        return jobs[a].workload < jobs[b].workload;
    });
    std::vector<size_t> payer(jobs.size(), kNone);
    std::vector<size_t> fetches;
    fetches.reserve(pending.size());
    for (size_t g = 0; g < byName.size();) {
        size_t end = g + 1;
        while (end < byName.size() &&
               jobs[byName[end]].workload == jobs[byName[g]].workload)
            ++end;
        size_t first = kNone;
        for (size_t k = g; k < end && first == kNone; ++k)
            if (admissionError(jobs[byName[k]]).empty())
                first = byName[k];
        if (first != kNone)
            fetches.push_back(first);
        for (size_t k = g; k < end; ++k)
            payer[byName[k]] = first;
        g = end;
    }
    std::sort(fetches.begin(), fetches.end());

    // cost and prepaid of a payer are written by the worker that
    // fetches its traces, outside the lock, and read by whichever
    // worker dispatches its group; the mutex handoff that publishes
    // the group as ready orders the two, as it does for the job's
    // metrics sink.
    std::vector<uint64_t> cost(jobs.size(), 0);
    std::vector<Clock::duration> prepaid(jobs.size());
    auto fetch = [&](size_t i) {
        JobMetrics *jm = opts_.metrics ? &opts_.metrics->job(i) : nullptr;
        const Clock::time_point t0 = Clock::now();
        try {
            PanicCaptureScope capture;
            MetricSpan span(jm, "trace");
            const TraceResult traced = cache_.get(
                jobs[i].workload, makeOf(jobs[i]), /*nameIsUnique=*/true);
            if (traced.ok())
                cost[i] = traced.traces->totalBlockExecs() +
                          traced.traces->totalAccesses();
        } catch (...) {
            // The job's own get reproduces the failure: a throwing
            // make() is not cached, anything later is cached as a
            // failed TraceResult.
        }
        prepaid[i] = Clock::now() - t0;
    };

    // The ready set is a max-heap under the dispatch order. Jobs with
    // no payer failed admission: they trace nothing, cost 0 and are
    // ready at once. The rest join when their payer's fetch returns.
    auto heapLess = [&](size_t a, size_t b) {
        return dispatchesBefore(b, a, cost);
    };
    std::vector<size_t> ready;
    ready.reserve(pending.size());
    for (size_t i : pending)
        if (payer[i] == kNone)
            ready.push_back(i);
    std::make_heap(ready.begin(), ready.end(), heapLess);

    std::mutex mu;
    std::condition_variable fetched;
    size_t nextFetch = 0;  // guarded by mu, as are inFlight and ready
    size_t inFlight = 0;
    auto work = [&]() {
        std::unique_lock<std::mutex> lock(mu);
        // Graceful drain: a stop request ends fetching and dispatch
        // alike. A worker only waits while a fetch is in flight, and
        // every fetch wakes all waiters when it returns, so none stays
        // blocked once the fetches run out.
        while (!stopRequested()) {
            if (nextFetch < fetches.size()) {
                const size_t f = fetches[nextFetch++];
                ++inFlight;
                lock.unlock();
                fetch(f);
                lock.lock();
                --inFlight;
                for (size_t i : pending) {
                    if (payer[i] != f)
                        continue;
                    cost[i] = cost[f];
                    ready.push_back(i);
                    std::push_heap(ready.begin(), ready.end(), heapLess);
                }
                fetched.notify_all();
            } else if (!ready.empty()) {
                std::pop_heap(ready.begin(), ready.end(), heapLess);
                const size_t i = ready.back();
                ready.pop_back();
                lock.unlock();
                deliver(i, execute(jobs[i], i, prepaid[i]));
                lock.lock();
            } else if (inFlight > 0) {
                fetched.wait(lock, [&] {
                    return !ready.empty() || inFlight == 0;
                });
            } else {
                break;
            }
        }
    };
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(work);
    // jthreads join on scope exit.
}

void
ExperimentEngine::beginSweep(const std::vector<ExperimentJob> &jobs)
{
    table_.reset(jobs.size());
    // Labels are only unique within one sweep, so the name->instance
    // memo from a previous run() on this engine must not leak into
    // this one (traces stay cached under their full launch keys).
    cache_.resetNameMemo();
    // Mount the persistent artifact store (if any) under both sweep
    // caches: traces and compiled artifacts are then satisfied by mmap
    // when a previous run published them.
    cache_.setStore(opts_.artifactStore);
    ccache_.setStore(opts_.artifactStore);
    if (opts_.metrics) {
        // One sink per job, labelled by its key: slot discipline makes
        // collection deterministic regardless of worker scheduling.
        opts_.metrics->reset(jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i)
            opts_.metrics->setLabel(i, jobKey(jobs[i]));
    }
}

std::vector<JobResult>
ExperimentEngine::runWith(const std::vector<ExperimentJob> &jobs,
                          const Executor &executor)
{
    std::vector<JobResult> results(jobs.size());
    beginSweep(jobs);
    if (jobs.empty())
        return results;

    ResultJournal *journal = opts_.journal;
    std::vector<std::string> keys;
    if (journal) {
        keys.resize(jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i)
            keys[i] = jobKey(jobs[i]);
    }

    // Satisfy journaled jobs verbatim (resume mode); everything else
    // goes to the executor. Pending slots are pre-marked `drained`: a
    // slot the executor never delivers before a stop request keeps the
    // marker.
    std::vector<size_t> pending;
    pending.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        JobResult &r = results[i];
        r.workload = jobs[i].workload;
        r.arch = jobs[i].arch;
        r.configLabel = jobs[i].configLabel;
        const JournalEntry *e = nullptr;
        if (journal) {
            auto it = journal->entries().find(keys[i]);
            if (it != journal->entries().end())
                e = &it->second;
        }
        if (e) {
            r.restored = true;
            r.verbatimJson = e->jsonLine;
            r.goldenPassed = e->golden;
            r.quarantined = e->quarantined;
            if (e->ok) {
                r.ran = true;
            } else {
                r.error = "failed in the journaled run (restored "
                          "verbatim; see the journal entry)";
            }
        } else {
            r.drained = true;
            pending.push_back(i);
        }
    }

    // Report restored results up-front in submission order, so
    // progress and failure accounting match an uninterrupted run.
    const bool reporting = opts_.onResult || opts_.injector;
    if (reporting) {
        for (size_t i = 0; i < results.size(); ++i) {
            if (results[i].restored)
                report(i, results[i]);
        }
    }

    std::mutex report_mu;  // serialises the progress/failure callbacks
    executor(pending, [&](size_t i, JobResult &&result) {
        results[i] = std::move(result);
        if (reporting) {
            std::lock_guard<std::mutex> lock(report_mu);
            report(i, results[i]);
        }
        // Render the row *after* the callbacks so it (and the
        // journal line taken from it) records any callback-failure
        // demotion — the line on disk must equal the line the JSON
        // writer will emit.
        table_.fill(i, results[i]);
        if (journal) {
            JournalEntry entry;
            entry.key = keys[i];
            entry.ok = results[i].ok();
            entry.golden = results[i].goldenPassed;
            entry.quarantined = results[i].quarantined;
            entry.jsonLine = std::string(table_.renderRow(i));
            journal->append(entry);
        }
    });
    // Restored and drained rows were never delivered; fill them now so
    // resultTable() covers the whole sweep.
    for (size_t i = 0; i < results.size(); ++i) {
        if (!table_.filled(i))
            table_.fill(i, results[i]);
    }
    return results;
}

JobResult
ExperimentEngine::execute(const ExperimentJob &job, size_t index,
                          std::chrono::steady_clock::duration prepaid)
{
    JobResult r = runJob(job, index, prepaid);
    if (opts_.metrics) {
        // Serialise before the callbacks and the journal so the
        // metrics land in the journaled line (resume re-emits it
        // verbatim, metrics included).
        r.metricsJson = opts_.metrics->job(index).countersJson();
    }
    return r;
}

std::string
ExperimentEngine::jobKey(const ExperimentJob &job)
{
    std::string key = job.workload + "|" + job.arch + "|" +
                      job.configLabel + "|" +
                      job.config.jobFingerprint(job.arch);
    // A custom make() is opaque: tag it so registry jobs can never
    // collide with synthetic ones sharing a label.
    if (job.make)
        key += "|custom";
    return key;
}

std::string
ExperimentEngine::sweepHash(const std::vector<ExperimentJob> &jobs)
{
    // Order-sensitive FNV-1a over the job keys: cheap, stable across
    // platforms, and any definition change flips it.
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](const std::string &s) {
        for (char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
        h ^= 0xffu;  // record separator: {"a","b"} != {"ab"}
        h *= 1099511628211ull;
    };
    for (const auto &job : jobs)
        mix(jobKey(job));
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

void
ExperimentEngine::report(size_t index, JobResult &result)
{
    // Called with the reporting mutex held. An exception out of a user
    // callback would unwind through the worker jthread and terminate
    // the whole process — demote it to an internal failure on the job.
    // Restored jobs never ran, so they get no callback span.
    JobMetrics *jm = opts_.metrics && !result.restored
                         ? &opts_.metrics->job(index)
                         : nullptr;
    MetricSpan span(jm, "callback");
    try {
        if (opts_.injector)
            opts_.injector->fire(FaultInjector::Point::Callback, index);
        if (opts_.onResult)
            opts_.onResult(index, result);
    } catch (const std::exception &e) {
        result.error = std::string("onResult callback threw: ") + e.what();
        result.errorKind = SimErrorKind::Internal;
    } catch (...) {
        result.error = "onResult callback threw a non-standard exception";
        result.errorKind = SimErrorKind::Internal;
    }
}

JobResult
ExperimentEngine::runJob(const ExperimentJob &job, size_t index,
                         std::chrono::steady_clock::duration prepaid)
{
    JobResult out;
    out.workload = job.workload;
    out.arch = job.arch;
    out.configLabel = job.configLabel;

    // Any vgiw_panic raised on this thread while the job runs (replay
    // invariant violations, injected faults) throws SimPanic instead of
    // aborting the process.
    PanicCaptureScope capture;
    FaultInjector *inj = opts_.injector;

    // Make the job's sink visible to the core model's replay loop for
    // the duration of the job; null when metrics are disabled.
    JobMetrics *jm = opts_.metrics ? &opts_.metrics->job(index) : nullptr;
    MetricSinkScope sink(jm);

    try {
        // Admit before building any simulation state: a malformed
        // sweep point fails fast as a config error without consuming a
        // functional execution.
        if (std::string msg = admissionError(job); !msg.empty()) {
            out.error = msg;
            out.errorKind = SimErrorKind::Config;
            return out;
        }

        // Per-job config copy: the wall-clock deadline (if any) is
        // anchored at job entry, so time spent tracing, compiling or
        // stalled counts against it — not just the replay loop. When
        // a pool worker fetched this job's traces on its behalf
        // before dispatch (@p prepaid), the anchor moves back by that
        // long, so the job pays for the functional execution exactly
        // as it would at --jobs 1.
        SystemConfig cfg = job.config;
        cfg.watchdog.anchor = std::chrono::steady_clock::now() - prepaid;
        auto model = makeCoreModel(job.arch, cfg);

        TraceResult traced;
        try {
            MetricSpan span(jm, "trace");
            if (inj)
                inj->fire(FaultInjector::Point::Trace, index);
            // The jobKey rule makes custom-make labels unique, so a
            // job's workload name determines its instance.
            traced = cache_.get(job.workload, makeOf(job),
                                /*nameIsUnique=*/true);
        } catch (const SimError &e) {
            out.error = e.what();
            out.errorKind = e.kind();
            return out;
        } catch (const std::exception &e) {
            out.error = e.what();
            out.errorKind = SimErrorKind::Functional;
            return out;
        }
        out.goldenPassed = traced.goldenPassed;
        if (jm && traced.traces) {
            // Deterministic per workload (ROADMAP's trace_cache.bytes
            // item): resident compressed footprint of this job's traces
            // and what the raw arrays would have cost.
            const double cb = double(traced.traces->compressedBytes());
            const double ub = double(traced.traces->uncompressedBytes());
            jm->set("trace_cache.bytes", cb);
            jm->set("trace_cache.uncompressed_bytes", ub);
            jm->set("trace_cache.compression_ratio", cb > 0 ? ub / cb : 1.0);
        }
        if (!traced.ok()) {
            out.error = traced.error.empty() ? "functional execution failed"
                                             : traced.error;
            out.errorKind = traced.errorKind != SimErrorKind::None
                                ? traced.errorKind
                                : SimErrorKind::Functional;
            return out;
        }

        std::shared_ptr<const CompiledKernel> compiled;
        CompileCache::FetchInfo fetch;
        try {
            // Compile once per (architecture compile slice, kernel):
            // sweep points that only vary replay-side knobs share the
            // artifact.
            MetricSpan span(jm, "compile");
            if (inj)
                inj->fire(FaultInjector::Point::Compile, index);
            compiled = ccache_.get(
                *model,
                TraceCache::keyFor(job.workload, traced.traces->launch),
                traced.traces, &fetch);
        } catch (const SimError &e) {
            out.error = e.what();
            out.errorKind = e.kind();
            return out;
        } catch (const std::exception &e) {
            out.error = e.what();
            out.errorKind = SimErrorKind::Compile;
            return out;
        }

        if (jm && opts_.artifactStore) {
            // Provenance of this job's two artifacts (0..2 store hits).
            // Read off the shared cache entries, not off scheduling
            // observables, so the values are identical for every
            // requester of a key and across worker counts.
            const double trace_hit = traced.traces->storeBacked ? 1 : 0;
            const double ck_hit = fetch.storeBacked ? 1 : 0;
            jm->set("artifact_store.hits", trace_hit + ck_hit);
            jm->set("artifact_store.misses", 2 - trace_hit - ck_hit);
            jm->set("artifact_store.bytes_mapped",
                    double(traced.traces->mappedBytes) +
                        double(fetch.mappedBytes));
        }

        try {
            MetricSpan span(jm, "replay");
            if (inj)
                inj->fire(FaultInjector::Point::Replay, index);
            out.stats = model->run(*traced.traces, *compiled);
            out.ran = true;
        } catch (const WatchdogError &e) {
            out.error = e.what();
            out.errorKind = SimErrorKind::Watchdog;
            out.partial.valid = true;
            out.partial.cycles = e.cycles;
            out.partial.dynBlockExecs = e.dynBlockExecs;
            out.partial.dynThreadOps = e.dynThreadOps;
        } catch (const SimError &e) {
            // Covers SimPanic (an invariant violation caught by the
            // capture scope) and any typed replay failure.
            out.error = e.what();
            out.errorKind = e.kind();
        } catch (const std::exception &e) {
            out.error = e.what();
            out.errorKind = SimErrorKind::Internal;
        }
    } catch (const SimError &e) {
        // Safety net: nothing past the stage handlers should throw,
        // but a fault here must still land in the result slot.
        out.error = e.what();
        out.errorKind = e.kind();
    } catch (const std::exception &e) {
        out.error = e.what();
        out.errorKind = SimErrorKind::Internal;
    } catch (...) {
        out.error = "unknown non-standard exception";
        out.errorKind = SimErrorKind::Internal;
    }
    return out;
}

std::vector<ExperimentJob>
ExperimentEngine::suiteJobs(const std::vector<std::string> &workloads,
                            const SystemConfig &cfg,
                            const std::vector<std::string> &archs,
                            const std::string &configLabel)
{
    std::vector<ExperimentJob> jobs;
    jobs.reserve(workloads.size() * archs.size());
    for (const auto &name : workloads) {
        for (const auto &arch : archs) {
            ExperimentJob job;
            job.workload = name;
            job.arch = arch;
            job.configLabel = configLabel;
            job.config = cfg;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::vector<ExperimentJob>
ExperimentEngine::suiteJobs(const SystemConfig &cfg,
                            const std::vector<std::string> &archs,
                            const std::string &configLabel)
{
    std::vector<std::string> names;
    for (const auto &entry : workloadRegistry())
        names.push_back(entry.name);
    return suiteJobs(names, cfg, archs, configLabel);
}

std::vector<ArchComparison>
ExperimentEngine::compare(const std::vector<std::string> &workloads,
                          const SystemConfig &cfg)
{
    const auto &archs = knownArchitectures();
    const std::vector<JobResult> results =
        run(suiteJobs(workloads, cfg, archs));

    std::vector<ArchComparison> out(workloads.size());
    for (size_t i = 0; i < results.size(); ++i) {
        const JobResult &r = results[i];
        ArchComparison &c = out[i / archs.size()];
        if (i % archs.size() == 0) {
            c.workload = r.workload;
            c.goldenPassed = true;
        }
        if (!r.ok() && c.goldenPassed) {
            c.goldenPassed = false;
            c.goldenError = r.error;
        }
        if (r.arch == "vgiw")
            c.vgiw = r.stats;
        else if (r.arch == "fermi")
            c.fermi = r.stats;
        else if (r.arch == "sgmf")
            c.sgmf = r.stats;
        else if (r.arch == "dice")
            c.dice = r.stats;
    }
    return out;
}

} // namespace vgiw
