/**
 * @file
 * Allocation ceilings for tracing, counted by the replaced global
 * operator new of alloc_counter.cc. The trace writer carves every
 * thread's streams from shared slabs, so tracing a launch allocates a
 * handful of buffers plus one slab per 64 KB of stream chunks, never a
 * buffer per thread; these ceilings fail as soon as per-thread
 * allocation returns.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "alloc/alloc_counter.hh"
#include "interp/interpreter.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

/** operator new calls made by Interpreter::run on a built workload. */
uint64_t
tracingAllocs(const WorkloadEntry &entry)
{
    WorkloadInstance w = entry.make();
    const uint64_t before = testing::allocCount();
    const TraceSet ts = Interpreter{}.run(w.kernel, w.launch, w.memory);
    const uint64_t allocs = testing::allocCount() - before;
    EXPECT_EQ(ts.numThreads(), size_t(w.launch.numThreads()));
    return allocs;
}

TEST(TracingAllocs, HotspotTracesInUnder100Allocations)
{
    // 16,384 threads: a buffer or two per thread would be 16K+.
    for (const WorkloadEntry &entry : workloadRegistry()) {
        if (entry.name == "HOTSPOT/hotspot_kernel") {
            EXPECT_LT(tracingAllocs(entry), 100u);
            return;
        }
    }
    FAIL() << "HOTSPOT/hotspot_kernel is not in the registry";
}

TEST(TracingAllocs, RegistryTracesInUnder900Allocations)
{
    uint64_t total = 0;
    for (const WorkloadEntry &entry : workloadRegistry()) {
        const uint64_t n = tracingAllocs(entry);
        total += n;
        std::printf("%-28s %8llu\n", entry.name.c_str(),
                    static_cast<unsigned long long>(n));
    }
    std::printf("%-28s %8llu\n", "total",
                static_cast<unsigned long long>(total));
    EXPECT_LT(total, 900u);  // 858 when last measured
}

} // namespace
} // namespace vgiw
