/**
 * @file
 * Detailed SGMF-model behaviours: whole-kernel replication, pipeline
 * depth across the CFG, and the memory predication rule.
 */

#include <gtest/gtest.h>

#include "helpers/test_kernels.hh"
#include "interp/interpreter.hh"
#include "sgmf/sgmf_core.hh"

namespace vgiw
{
namespace
{

TraceSet
runLoop(MemoryImage &mem, int threads, int trips)
{
    static Kernel k = testing::makeLoopKernel();
    uint32_t out = mem.allocWords(uint32_t(threads));
    LaunchParams lp;
    lp.numCtas = std::max(1, threads / 64);
    lp.ctaSize = std::min(threads, 64);
    lp.params = {Scalar::fromU32(out), Scalar::fromI32(trips)};
    return Interpreter{}.run(k, lp, mem);
}

TEST(SgmfDetail, SmallKernelsReplicateWholeGraph)
{
    MemoryImage mem;
    TraceSet t = runLoop(mem, 64, 2);
    RunStats rs = SgmfCore{}.run(t);
    ASSERT_TRUE(rs.supported);
    // The 4-block loop kernel is small; at least 2 whole-graph copies
    // fit the 108-unit fabric.
    EXPECT_GE(rs.extra.get("sgmf.replicas"), 2.0);
}

TEST(SgmfDetail, ThroughputScalesWithReplicas)
{
    MemoryImage m1, m2;
    TraceSet t = runLoop(m1, 2048, 4);
    SgmfConfig one;
    one.maxReplicas = 1;
    SgmfConfig many;
    RunStats a = SgmfCore(one).run(t);
    TraceSet t2 = runLoop(m2, 2048, 4);
    RunStats b = SgmfCore(many).run(t2);
    EXPECT_GT(a.cycles, b.cycles);
}

TEST(SgmfDetail, OnlyTakenPathMemoryAccessesIssue)
{
    // Predicated-off memory ops must not reach the cache hierarchy:
    // the L1 access count equals the trace's global access count.
    Kernel k = testing::makeFig1Kernel();
    MemoryImage mem;
    uint32_t in = mem.allocWords(64), out = mem.allocWords(64),
             out2 = mem.allocWords(64);
    for (int i = 0; i < 64; ++i)
        mem.storeI32(in, uint32_t(i), i % 4);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 64;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                 Scalar::fromU32(out2)};
    TraceSet t = Interpreter{}.run(k, lp, mem);
    RunStats rs = SgmfCore{}.run(t);
    ASSERT_TRUE(rs.supported);
    EXPECT_EQ(rs.l1Stats.accesses(), t.totalAccesses());
}

TEST(SgmfDetail, PipelineDepthCoversTheLongestCfgPath)
{
    // The whole-kernel critical path must be at least the deepest
    // single block's critical path.
    Kernel k = testing::makeFig1Kernel();
    MemoryImage mem;
    uint32_t in = mem.allocWords(8), out = mem.allocWords(8),
             out2 = mem.allocWords(8);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 8;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                 Scalar::fromU32(out2)};
    TraceSet t = Interpreter{}.run(k, lp, mem);
    RunStats rs = SgmfCore{}.run(t);
    ASSERT_TRUE(rs.supported);
    // 8 threads, 1 config: cycles are dominated by pipeline depth,
    // which must exceed the load latency (BB1 contains a load).
    CgrfTiming tm;
    EXPECT_GT(rs.cycles,
              uint64_t(tm.ldstLatency) + rs.configCycles);
}

TEST(SgmfDetail, EnergyIndependentOfPathsTaken)
{
    // Compute energy per injection is a whole-graph constant.
    Kernel k = testing::makeFig1Kernel();
    auto energy_for = [&k](int32_t fill) {
        MemoryImage mem;
        uint32_t in = mem.allocWords(64), out = mem.allocWords(64),
                 out2 = mem.allocWords(64);
        for (int i = 0; i < 64; ++i)
            mem.storeI32(in, uint32_t(i), fill);
        LaunchParams lp;
        lp.numCtas = 1;
        lp.ctaSize = 64;
        lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                     Scalar::fromU32(out2)};
        TraceSet t = Interpreter{}.run(k, lp, mem);
        RunStats rs = SgmfCore{}.run(t);
        return rs.energy.get(EnergyComponent::Datapath) -
               // subtract the (path-dependent) LDST issue part
               0.0;
    };
    // All-BB2 vs all-BB5 paths: same graph, same datapath energy modulo
    // the predicated store issue costs (small).
    const double a = energy_for(1);
    const double b = energy_for(0);
    EXPECT_NEAR(a / b, 1.0, 0.05);
}

} // namespace
} // namespace vgiw
