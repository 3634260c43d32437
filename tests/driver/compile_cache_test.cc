/**
 * @file
 * CompileCache tests: the compile/replay split is stat-preserving on the
 * whole registry, artifacts are shared across requesters, compilation
 * happens exactly once per key under concurrency, and compile failures
 * propagate to every requester.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "driver/compile_cache.hh"
#include "driver/experiment_engine.hh"
#include "driver/system_config.hh"
#include "driver/trace_cache.hh"
#include "sgmf/sgmf_core.hh"
#include "simt/fermi_core.hh"
#include "vgiw/vgiw_core.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

/** Every stat a result row serialises must match between two runs. */
void
expectSameStats(const RunStats &a, const RunStats &b)
{
    JobResult ra, rb;
    ra.ran = rb.ran = true;
    ra.stats = a;
    rb.stats = b;
    ResultTable table;
    table.reset(2);
    table.fill(0, ra);
    table.fill(1, rb);
    EXPECT_EQ(table.renderRow(0), table.renderRow(1));
}

TEST(CompileCache, CompiledReplayMatchesOneShotOnFullRegistry)
{
    SystemConfig cfg;
    TraceCache traces;
    CompileCache cache;
    for (const auto &entry : workloadRegistry()) {
        TraceResult traced = traces.get(entry);
        ASSERT_TRUE(traced.ok()) << entry.name;
        for (const auto &model : makeCoreModels(cfg)) {
            auto compiled = cache.get(
                *model, TraceCache::keyFor(entry.name, traced.traces->launch),
                traced.traces);
            ASSERT_NE(compiled, nullptr);
            RunStats via_cache = model->run(*traced.traces, *compiled);
            RunStats one_shot = model->run(*traced.traces);
            expectSameStats(via_cache, one_shot);
        }
    }
}

TEST(CompileCache, SweepOverReplayKnobsCompilesOncePerArchitecture)
{
    // Replay-side knobs (LVC bytes, CVT capacity, miss window) must not
    // enter the compile key: a design-space sweep over them reuses one
    // artifact per (architecture, kernel).
    TraceCache traces;
    CompileCache cache;
    TraceResult traced = traces.get(workloadRegistry().front());
    ASSERT_TRUE(traced.ok());
    const std::string kkey = TraceCache::keyFor(
        workloadRegistry().front().name, traced.traces->launch);

    for (uint32_t lvc : {16u, 32u, 64u, 128u}) {
        SystemConfig cfg;
        cfg.vgiw.lvcBytes = lvc * 1024;
        cfg.vgiw.missWindow = 1024 / lvc;
        for (const auto &model : makeCoreModels(cfg))
            EXPECT_NE(cache.get(*model, kkey, traced.traces), nullptr);
    }
    EXPECT_EQ(cache.compilations(), knownArchitectures().size());
    EXPECT_EQ(cache.size(), knownArchitectures().size());

    // Changing a compile-side field (the replication cap) is a new key.
    SystemConfig capped;
    capped.vgiw.maxReplicas = 2;
    VgiwCore fewer(capped.vgiw);
    EXPECT_NE(cache.get(fewer, kkey, traced.traces), nullptr);
    EXPECT_EQ(cache.compilations(), knownArchitectures().size() + 1);
}

TEST(CompileCache, ConcurrentRequestersShareOneCompilation)
{
    TraceCache traces;
    CompileCache cache;
    TraceResult traced = traces.get(workloadRegistry().front());
    ASSERT_TRUE(traced.ok());
    const std::string kkey = TraceCache::keyFor(
        workloadRegistry().front().name, traced.traces->launch);

    SystemConfig cfg;
    VgiwCore model(cfg.vgiw);
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const CompiledKernel>> got(kThreads);
    {
        std::vector<std::jthread> pool;
        for (int t = 0; t < kThreads; ++t) {
            pool.emplace_back([&, t] {
                got[t] = cache.get(model, kkey, traced.traces);
            });
        }
    }
    EXPECT_EQ(cache.compilations(), 1u);
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(got[t], nullptr);
        EXPECT_EQ(got[t], got[0]);  // the artifact itself is shared
    }
}

TEST(CompileCache, CompileFailurePropagatesToEveryRequester)
{
    TraceCache traces;
    CompileCache cache;
    TraceResult traced = traces.get(workloadRegistry().front());
    ASSERT_TRUE(traced.ok());
    const std::string kkey = TraceCache::keyFor(
        workloadRegistry().front().name, traced.traces->launch);

    // A one-unit grid cannot place any compute op: compile() throws.
    VgiwConfig tiny;
    tiny.grid.width = 1;
    tiny.grid.height = 1;
    tiny.grid.counts = {};
    countOf(tiny.grid.counts, UnitKind::Sju) = 1;
    tiny.grid.kindAt = {UnitKind::Sju};
    tiny.grid.positions = {{0, 0}};
    VgiwCore model(tiny);
    EXPECT_THROW((void)cache.get(model, kkey, traced.traces),
                 std::runtime_error);
    // The failure is not cached as a success: a second requester of the
    // same key also sees the failure (fresh attempt or stored error).
    EXPECT_THROW((void)cache.get(model, kkey, traced.traces),
                 std::runtime_error);
}

TEST(CompileCache, ArtifactOutlivesCacheClear)
{
    SystemConfig cfg;
    TraceCache traces;
    auto cache = std::make_unique<CompileCache>();
    TraceResult traced = traces.get(workloadRegistry().front());
    ASSERT_TRUE(traced.ok());

    VgiwCore model(cfg.vgiw);
    auto compiled = cache->get(
        model,
        TraceCache::keyFor(workloadRegistry().front().name,
                           traced.traces->launch),
        traced.traces);
    cache->clear();
    cache.reset();
    // The held artifact still replays after the cache is gone.
    RunStats rs = model.run(*traced.traces, *compiled);
    EXPECT_GT(rs.cycles, 0u);
}

} // namespace
} // namespace vgiw
