/**
 * @file
 * Structural anchors for the Table 2 suite: block counts, divergence
 * character and resource usage of each kernel, so refactors of the
 * builders cannot silently change what the benchmarks measure.
 */

#include <gtest/gtest.h>

#include "cgrf/placer.hh"
#include "driver/trace_cache.hh"
#include "ir/op_counts.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

int
blocksOf(const char *name)
{
    return makeWorkload(name).kernel.numBlocks();
}

TEST(WorkloadStructure, BlockCountsAnchored)
{
    // Counts after the block-splitting pass; Table 2's figures are in
    // parentheses where they differ (see EXPERIMENTS.md for why).
    EXPECT_EQ(blocksOf("BFS/Kernel"), 8);            // (8)
    EXPECT_EQ(blocksOf("BFS/Kernel2"), 4);           // (3)
    EXPECT_EQ(blocksOf("KMEANS/invert_mapping"), 3); // (3)
    EXPECT_EQ(blocksOf("CFD/compute_step_factor"), 1);
    EXPECT_EQ(blocksOf("CFD/initialize_variables"), 1);
    EXPECT_EQ(blocksOf("CFD/time_step"), 2);         // (1) + split
    EXPECT_EQ(blocksOf("CFD/compute_flux"), 9);      // (12)
    EXPECT_EQ(blocksOf("GE/Fan1"), 3);               // (2)
    EXPECT_EQ(blocksOf("GE/Fan2"), 5);               // (5)
    EXPECT_EQ(blocksOf("LUD/lud_diagonal"), 17);     // (11)
    EXPECT_EQ(blocksOf("LUD/lud_perimeter"), 14);    // (22)
    EXPECT_EQ(blocksOf("NN/euclid"), 3);             // (2)
    EXPECT_EQ(blocksOf("PF/normalize_weights"), 5);  // (5)
    EXPECT_EQ(blocksOf("NW/needle_cuda_shared_1"), 14);  // (13)
    EXPECT_EQ(blocksOf("SM/compute_cost"), 8);       // (6)
}

TEST(WorkloadStructure, DivergentKernelsActuallyDiverge)
{
    // The suite must exercise real control divergence: these kernels'
    // threads take different paths (block execution counts differ from
    // threads x blocks).
    for (const char *name :
         {"BFS/Kernel", "GE/Fan2", "SM/compute_cost"}) {
        WorkloadInstance w = makeWorkload(name);
        TraceResult traced = traceWorkload(w);
        const TraceSet &t = *traced.traces;
        bool divergent = false;
        const uint32_t len0 = t.numExecs(0);
        for (uint32_t tid = 0; tid < t.numThreads(); ++tid)
            divergent |= t.numExecs(tid) != len0;
        EXPECT_TRUE(divergent) << name;
    }
}

TEST(WorkloadStructure, ScuKernelsUseScus)
{
    // The FP/SCU-heavy kernels must actually occupy SCUs (divisions,
    // roots, transcendentals) — that mix drives their Fig. 7 wins.
    for (const char *name :
         {"CFD/compute_step_factor", "NN/euclid",
          "LAVAMD/kernel_gpu_cuda", "BPNN/layerforward"}) {
        WorkloadInstance w = makeWorkload(name);
        uint32_t scu = 0;
        for (const auto &blk : w.kernel.blocks)
            scu += staticOpCounts(blk).scu;
        EXPECT_GT(scu, 0u) << name;
    }
}

TEST(WorkloadStructure, SharedMemoryKernelsDeclareScratchpad)
{
    for (const char *name :
         {"LUD/lud_diagonal", "NW/needle_cuda_shared_1",
          "BPNN/layerforward"}) {
        WorkloadInstance w = makeWorkload(name);
        EXPECT_GT(w.kernel.sharedBytesPerCta, 0) << name;
    }
}

TEST(WorkloadStructure, BarrierKernelsHaveBarriers)
{
    for (const char *name :
         {"LUD/lud_diagonal", "NW/needle_cuda_shared_1",
          "BPNN/layerforward"}) {
        WorkloadInstance w = makeWorkload(name);
        bool has_barrier = false;
        for (const auto &blk : w.kernel.blocks)
            has_barrier |= blk.term.barrier;
        EXPECT_TRUE(has_barrier) << name;
    }
}

TEST(WorkloadStructure, EveryKernelFitsAfterSplitting)
{
    Placer placer(GridConfig::makeTable1());
    for (const auto &entry : workloadRegistry()) {
        WorkloadInstance w = entry.make();
        for (const auto &blk : w.kernel.blocks) {
            EXPECT_TRUE(placer.place(buildBlockDfg(blk), 1).fits)
                << entry.name << " block " << blk.name;
        }
    }
}

TEST(WorkloadStructure, LaunchGeometryIsConsistent)
{
    for (const auto &entry : workloadRegistry()) {
        WorkloadInstance w = entry.make();
        EXPECT_GT(w.launch.numCtas, 0) << entry.name;
        EXPECT_GT(w.launch.ctaSize, 0) << entry.name;
        EXPECT_EQ(int(w.launch.params.size()), w.kernel.numParams)
            << entry.name;
        // Enough threads to exercise coalescing meaningfully (GE/Fan1
        // is inherently small: one multiplier column per step).
        EXPECT_GE(w.launch.numThreads(), 128) << entry.name;
    }
}

} // namespace
} // namespace vgiw
