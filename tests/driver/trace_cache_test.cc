/**
 * @file
 * Trace-cache tests: one functional execution per (workload, launch)
 * key no matter how many config points or threads ask, keyed results
 * stay alive independently of the cache, and concurrent requesters of
 * the same key share one execution.
 */

#include <gtest/gtest.h>

#include <thread>

#include "driver/experiment_engine.hh"
#include "driver/trace_cache.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

const WorkloadEntry &
entryFor(const std::string &name)
{
    for (const auto &e : workloadRegistry())
        if (e.name == name)
            return e;
    throw std::runtime_error("no entry " + name);
}

TEST(TraceCache, TraceWorkloadReturnsValueResult)
{
    WorkloadInstance w = makeWorkload("NN/euclid");
    TraceResult traced = traceWorkload(w);
    EXPECT_TRUE(traced.ok());
    EXPECT_TRUE(traced.goldenPassed);
    EXPECT_TRUE(traced.error.empty());
    ASSERT_TRUE(traced.traces);
    EXPECT_EQ(traced.traces->kernel, &w.kernel);
    EXPECT_GT(traced.traces->totalBlockExecs(), 0u);
}

TEST(TraceCache, TraceWorkloadReportsGoldenFailureInsteadOfThrowing)
{
    WorkloadInstance w = makeWorkload("NN/euclid");
    w.check = [](const MemoryImage &, std::string &err) {
        err = "expected 42, got 43";
        return false;
    };
    TraceResult traced = traceWorkload(w);
    EXPECT_FALSE(traced.ok());
    EXPECT_FALSE(traced.goldenPassed);
    EXPECT_EQ(traced.error, "expected 42, got 43");
    EXPECT_EQ(traced.errorKind, SimErrorKind::Golden);
    // The traces themselves are still produced (for post-mortems).
    ASSERT_TRUE(traced.traces);
    EXPECT_GT(traced.traces->totalBlockExecs(), 0u);
}

TEST(TraceCache, OneFunctionalExecutionPerWorkloadInMultiConfigSweep)
{
    // A design-space sweep: 4 workloads x 3 LVC sizes x jobs=4. The
    // engine must trace each workload exactly once, not once per config
    // point.
    const char *kernels[] = {"NN/euclid", "BFS/Kernel", "GE/Fan1",
                             "KMEANS/invert_mapping"};
    std::vector<ExperimentJob> jobs;
    for (const char *name : kernels) {
        for (uint32_t kb : {16u, 64u, 256u}) {
            ExperimentJob job;
            job.workload = name;
            job.configLabel = std::to_string(kb) + "KB";
            job.config.vgiw.lvcBytes = kb * 1024;
            jobs.push_back(std::move(job));
        }
    }
    ExperimentEngine engine{EngineOptions{4}};
    auto results = engine.run(jobs);

    for (const auto &r : results)
        EXPECT_TRUE(r.ok()) << r.workload << ": " << r.error;
    EXPECT_EQ(engine.traceCache().functionalExecutions(),
              std::size(kernels));
    EXPECT_EQ(engine.traceCache().size(), std::size(kernels));

    // Different configs genuinely replayed: the 16KB LVC misses more
    // (or equally, for kernels with no LVC traffic) than the 256KB one.
    for (size_t k = 0; k < std::size(kernels); ++k) {
        const RunStats &small = results[3 * k].stats;
        const RunStats &large = results[3 * k + 2].stats;
        EXPECT_GE(small.lvcStats.misses(), large.lvcStats.misses())
            << kernels[k];
        EXPECT_EQ(small.dynBlockExecs, large.dynBlockExecs)
            << kernels[k];
    }
}

TEST(TraceCache, RepeatedGetsHitTheCache)
{
    TraceCache cache;
    const auto &entry = entryFor("NN/euclid");
    TraceResult first = cache.get(entry);
    TraceResult second = cache.get(entry);
    EXPECT_TRUE(first.ok());
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(cache.functionalExecutions(), 1u);
    // Both handles alias one TraceSet (same underlying object).
    EXPECT_EQ(first.traces.get(), second.traces.get());
}

TEST(TraceCache, ConcurrentRequestersShareOneExecution)
{
    TraceCache cache;
    const auto &entry = entryFor("GE/Fan1");
    std::vector<TraceResult> results(8);
    {
        std::vector<std::jthread> pool;
        for (size_t t = 0; t < results.size(); ++t)
            pool.emplace_back([&cache, &entry, &results, t]() {
                results[t] = cache.get(entry);
            });
    }
    for (const auto &r : results) {
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.traces.get(), results[0].traces.get());
    }
    EXPECT_EQ(cache.functionalExecutions(), 1u);
}

TEST(TraceCache, ResultsOutliveTheCache)
{
    // The handed-out TraceResult owns the kernel its TraceSet borrows:
    // clearing (or destroying) the cache must not dangle it.
    TraceResult held;
    {
        TraceCache cache;
        held = cache.get(entryFor("NN/euclid"));
        cache.clear();
        EXPECT_EQ(cache.size(), 0u);
    }
    ASSERT_TRUE(held.ok());
    ASSERT_NE(held.traces->kernel, nullptr);
    EXPECT_EQ(held.traces->kernel->name, "euclid");
    EXPECT_GT(held.traces->totalBlockExecs(), 0u);
    // Replaying the held traces still works after cache destruction.
    RunStats rs = VgiwCore{}.run(*held.traces);
    EXPECT_GT(rs.cycles, 0u);
}

TEST(TraceCache, DistinctLaunchParamsAreDistinctKeys)
{
    TraceCache cache;
    const auto &entry = entryFor("NN/euclid");
    cache.get(entry);
    // Same name, different launch geometry => a separate execution.
    auto halved = [&entry]() {
        WorkloadInstance w = entry.make();
        w.launch.numCtas = std::max(1, w.launch.numCtas / 2);
        w.check = nullptr;  // reference covers the full launch only
        return w;
    };
    cache.get(entry.name, halved);
    EXPECT_EQ(cache.functionalExecutions(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(TraceCache, NameMemoResetRekeysReusedNames)
{
    // The nameIsUnique promise only holds within one sweep: the engine
    // resets the memo between run()s, after which a reused label must
    // rebuild its instance and be matched by the full launch key — not
    // silently served the previous sweep's instance.
    TraceCache cache;
    const auto &entry = entryFor("NN/euclid");
    TraceResult first = cache.get(entry.name, entry.make, true);
    auto halved = [&entry]() {
        WorkloadInstance w = entry.make();
        w.launch.numCtas = std::max(1, w.launch.numCtas / 2);
        w.check = nullptr;  // reference covers the full launch only
        return w;
    };

    // Within a sweep the memo is authoritative by contract: make() is
    // skipped and the memoised instance comes back.
    TraceResult memoised = cache.get(entry.name, halved, true);
    EXPECT_EQ(memoised.traces.get(), first.traces.get());
    EXPECT_EQ(cache.functionalExecutions(), 1u);

    // After the between-sweeps reset, the same call rebuilds and lands
    // on its own (distinct) launch key.
    cache.resetNameMemo();
    TraceResult fresh = cache.get(entry.name, halved, true);
    EXPECT_NE(fresh.traces.get(), first.traces.get());
    EXPECT_EQ(cache.functionalExecutions(), 2u);
    EXPECT_EQ(cache.size(), 2u);

    // Traces cached under their full keys survive the memo reset.
    cache.resetNameMemo();
    TraceResult again = cache.get(entry.name, entry.make, true);
    EXPECT_EQ(again.traces.get(), first.traces.get());
    EXPECT_EQ(cache.functionalExecutions(), 2u);
}

TEST(TraceCache, GoldenFailureIsCachedNotRethrown)
{
    TraceCache cache;
    auto failing = []() {
        WorkloadInstance w = makeWorkload("NN/euclid");
        w.check = [](const MemoryImage &, std::string &err) {
            err = "bad output";
            return false;
        };
        return w;
    };
    TraceResult a = cache.get("SYNTH/fails", failing);
    TraceResult b = cache.get("SYNTH/fails", failing);
    EXPECT_FALSE(a.ok());
    EXPECT_FALSE(a.goldenPassed);
    EXPECT_EQ(a.error, "bad output");
    ASSERT_TRUE(a.traces);  // traces exist even when the check fails
    EXPECT_FALSE(b.ok());
    EXPECT_EQ(cache.functionalExecutions(), 1u);
}

} // namespace
} // namespace vgiw
