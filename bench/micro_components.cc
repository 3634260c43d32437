/**
 * @file
 * Component microbenchmarks (google-benchmark): throughput of the
 * simulator's hot paths — CVT drain/update, LVC access,
 * cache access, DFG construction + placement, functional interpretation
 * and full VGIW replay. These guard the "whole suite simulates in
 * seconds" property the evaluation workflow depends on.
 */

#include <benchmark/benchmark.h>

#include "cgrf/placer.hh"
#include "common/rng.hh"
#include "interp/interpreter.hh"
#include "ir/builder.hh"
#include "vgiw/control_vector_table.hh"
#include "vgiw/live_value_cache.hh"
#include "vgiw/vgiw_core.hh"
#include "workloads/workload.hh"

namespace
{

using namespace vgiw;

void
BM_CvtDrainAndRefill(benchmark::State &state)
{
    const int tile = int(state.range(0));
    ControlVectorTable cvt(8, tile);
    for (auto _ : state) {
        cvt.seedEntry(tile);
        auto tids = cvt.drain(0);
        benchmark::DoNotOptimize(tids);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * tile);
}
BENCHMARK(BM_CvtDrainAndRefill)->Arg(1024)->Arg(4096);

void
BM_LvcAccess(benchmark::State &state)
{
    MemorySystem ms(vgiwL1Geometry());
    LiveValueCache lvc(lvcGeometry(), ms, 4096);
    uint32_t tid = 0;
    for (auto _ : state) {
        auto r = lvc.access(uint16_t(tid % 8), tid % 4096, tid & 1);
        benchmark::DoNotOptimize(r);
        ++tid;
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_LvcAccess);

void
BM_L1CacheAccess(benchmark::State &state)
{
    MemorySystem ms(vgiwL1Geometry());
    Rng rng(9);
    for (auto _ : state) {
        auto r = ms.access(rng.nextUInt(1u << 22) & ~3u, rng.chance(0.3f));
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_L1CacheAccess);

void
BM_BlockPlaceAndRoute(benchmark::State &state)
{
    WorkloadInstance w = makeWorkload("CFD/compute_step_factor");
    Placer placer(GridConfig::makeTable1());
    Dfg dfg = buildBlockDfg(w.kernel.blocks[0]);
    for (auto _ : state) {
        PlacedBlock pb = placer.place(dfg);
        benchmark::DoNotOptimize(pb);
    }
}
BENCHMARK(BM_BlockPlaceAndRoute);

void
BM_FunctionalExecution(benchmark::State &state)
{
    WorkloadInstance w = makeWorkload("NN/euclid");
    for (auto _ : state) {
        MemoryImage mem = w.memory;
        TraceSet t = Interpreter{}.run(w.kernel, w.launch, mem);
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            w.launch.numThreads());
}
BENCHMARK(BM_FunctionalExecution);

void
BM_VgiwReplay(benchmark::State &state)
{
    WorkloadInstance w = makeWorkload("BFS/Kernel");
    MemoryImage mem = w.memory;
    TraceSet traces = Interpreter{}.run(w.kernel, w.launch, mem);
    VgiwCore core;
    for (auto _ : state) {
        RunStats rs = core.run(traces);
        benchmark::DoNotOptimize(rs);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(traces.totalBlockExecs()));
}
BENCHMARK(BM_VgiwReplay);

} // namespace

BENCHMARK_MAIN();
