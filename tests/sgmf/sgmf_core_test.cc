#include <gtest/gtest.h>

#include "helpers/test_kernels.hh"
#include "interp/interpreter.hh"
#include "sgmf/sgmf_core.hh"
#include "vgiw/vgiw_core.hh"

namespace vgiw
{
namespace
{

/** A kernel too large for whole-kernel spatial mapping. */
Kernel
makeHugeKernel()
{
    KernelBuilder kb("huge", 1);
    std::vector<BlockRef> blocks;
    for (int i = 0; i < 8; ++i)
        blocks.push_back(kb.block("b" + std::to_string(i)));
    for (int i = 0; i < 8; ++i) {
        BlockRef b = blocks[i];
        Operand acc = b.u2f(Operand::special(SpecialReg::Tid));
        for (int j = 0; j < 10; ++j)
            acc = b.fadd(acc, Operand::constF32(float(j)));
        b.store(Type::F32, b.elemAddr(Operand::param(0),
                                      Operand::special(SpecialReg::Tid)),
                acc);
        if (i + 1 < 8)
            b.jump(blocks[i + 1]);
        else
            b.exit();
    }
    return kb.finish();
}

TEST(SgmfCore, SupportsSmallKernels)
{
    SgmfCore core;
    EXPECT_TRUE(core.supports(testing::makeLoopKernel()));
    EXPECT_TRUE(core.supports(testing::makeFig1Kernel()));
}

TEST(SgmfCore, RejectsKernelsLargerThanTheFabric)
{
    SgmfCore core;
    Kernel huge = makeHugeKernel();
    EXPECT_FALSE(core.supports(huge));

    MemoryImage mem;
    uint32_t out = mem.allocWords(64);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 64;
    lp.params = {Scalar::fromU32(out)};
    TraceSet traces = Interpreter{}.run(huge, lp, mem);
    RunStats rs = SgmfCore{}.run(traces);
    EXPECT_FALSE(rs.supported);
    // VGIW executes the same kernel fine: the von Neumann scheduling
    // side removes the kernel-size limitation (the paper's key claim).
    RunStats v = VgiwCore{}.run(traces);
    EXPECT_GT(v.cycles, 0u);
}

TEST(SgmfCore, SingleConfigurationRegardlessOfBlocks)
{
    Kernel k = testing::makeFig1Kernel();
    MemoryImage mem;
    uint32_t in = mem.allocWords(8), out = mem.allocWords(8),
             out2 = mem.allocWords(8);
    const int32_t raw[8] = {1, 2, 1, 0, 0, 0, 2, 1};
    for (int i = 0; i < 8; ++i)
        mem.storeI32(in, i, raw[i]);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 8;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                 Scalar::fromU32(out2)};
    TraceSet traces = Interpreter{}.run(k, lp, mem);
    RunStats rs = SgmfCore{}.run(traces);
    ASSERT_TRUE(rs.supported);
    EXPECT_EQ(rs.reconfigs, 1u);
}

TEST(SgmfCore, LoopsReinjectThreads)
{
    Kernel k = testing::makeLoopKernel();
    auto injections_for = [&k](int trips) {
        MemoryImage mem;
        uint32_t out = mem.allocWords(32);
        LaunchParams lp;
        lp.numCtas = 1;
        lp.ctaSize = 32;
        lp.params = {Scalar::fromU32(out), Scalar::fromI32(trips)};
        TraceSet t = Interpreter{}.run(k, lp, mem);
        RunStats rs = SgmfCore{}.run(t);
        return rs.extra.get("sgmf.injections");
    };
    // Injections grow with trip count: 1 initial + trips back-edges.
    EXPECT_EQ(injections_for(2), 32.0 * 3.0);
    EXPECT_EQ(injections_for(6), 32.0 * 7.0);
}

TEST(SgmfCore, DivergenceWastesEnergyNotTime)
{
    // All-paths spatial execution: SGMF's datapath energy covers every
    // mapped op per injection, so a divergent run burns the same
    // datapath energy as a uniform one — while VGIW's tracks only the
    // blocks actually executed.
    Kernel k = testing::makeFig1Kernel();
    auto run_with = [&k](std::vector<int32_t> inputs) {
        MemoryImage mem;
        int n = int(inputs.size());
        uint32_t in = mem.allocWords(n), out = mem.allocWords(n),
                 out2 = mem.allocWords(n);
        for (int i = 0; i < n; ++i)
            mem.storeI32(in, i, inputs[i]);
        LaunchParams lp;
        lp.numCtas = 1;
        lp.ctaSize = n;
        lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                     Scalar::fromU32(out2)};
        TraceSet t = Interpreter{}.run(k, lp, mem);
        struct Pair { RunStats sgmf, vgiw; } p;
        p.sgmf = SgmfCore{}.run(t);
        p.vgiw = VgiwCore{}.run(t);
        return p;
    };

    auto uniform = run_with(std::vector<int32_t>(64, 1));  // all BB2
    std::vector<int32_t> div(64);
    const int32_t raw[8] = {1, 2, 1, 0, 0, 0, 2, 1};
    for (int i = 0; i < 64; ++i)
        div[i] = raw[i % 8];
    auto divergent = run_with(div);

    const double sgmf_dp_u =
        uniform.sgmf.energy.get(EnergyComponent::Datapath);
    const double sgmf_dp_d =
        divergent.sgmf.energy.get(EnergyComponent::Datapath);
    // SGMF pays for the whole graph either way (within a few % from
    // predicated memory issue differences).
    EXPECT_NEAR(sgmf_dp_d / sgmf_dp_u, 1.0, 0.15);

    // VGIW, by contrast, only pays for the blocks threads actually
    // execute: its datapath energy tracks the path taken...
    const double vgiw_dp_u =
        uniform.vgiw.energy.get(EnergyComponent::Datapath);
    const double vgiw_dp_d =
        divergent.vgiw.energy.get(EnergyComponent::Datapath);
    EXPECT_GT(vgiw_dp_d, vgiw_dp_u * 1.05);
    // ...and stays below SGMF's all-paths datapath energy on both runs.
    EXPECT_LT(vgiw_dp_u, sgmf_dp_u);
    EXPECT_LT(vgiw_dp_d, sgmf_dp_d);
}

TEST(SgmfCore, NoLvcOrCvtEnergy)
{
    Kernel k = testing::makeLoopKernel();
    MemoryImage mem;
    uint32_t out = mem.allocWords(32);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 32;
    lp.params = {Scalar::fromU32(out), Scalar::fromI32(3)};
    TraceSet traces = Interpreter{}.run(k, lp, mem);
    RunStats rs = SgmfCore{}.run(traces);
    ASSERT_TRUE(rs.supported);
    EXPECT_EQ(rs.energy.get(EnergyComponent::Lvc), 0.0);
    EXPECT_EQ(rs.energy.get(EnergyComponent::Cvt), 0.0);
    EXPECT_EQ(rs.energy.get(EnergyComponent::Frontend), 0.0);
    EXPECT_GT(rs.energy.get(EnergyComponent::TokenFabric), 0.0);
}

TEST(SgmfCore, SharedMemoryOpsPayLdstIssue)
{
    // Every thread loads one global word, stores and loads one shared
    // word and stores one global word: four LDST issues each, two of
    // them to the scratchpad.
    const int cta = 32, ctas = 2, n = cta * ctas;
    Kernel k = testing::makeBarrierKernel(cta);
    ASSERT_TRUE(SgmfCore{}.supports(k));
    MemoryImage mem;
    const uint32_t in = mem.allocWords(n);
    const uint32_t out = mem.allocWords(n);
    LaunchParams lp;
    lp.numCtas = ctas;
    lp.ctaSize = cta;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
    TraceSet traces = Interpreter{}.run(k, lp, mem);
    RunStats rs = SgmfCore{}.run(traces);
    ASSERT_TRUE(rs.supported);
    EXPECT_EQ(rs.events.sharedWords, uint64_t(2 * n));
    EXPECT_EQ(rs.l1Stats.accesses(), uint64_t(2 * n));
    EXPECT_EQ(rs.events.ldstIssues, uint64_t(4 * n));
}

} // namespace
} // namespace vgiw
