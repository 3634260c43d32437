/**
 * @file
 * Residency and latency-hiding behaviour of the Fermi SM model: CTA
 * residency limits throttle parallelism, and the dependent-ALU latency
 * is hidden only when enough warps are resident.
 */

#include <gtest/gtest.h>

#include "interp/interpreter.hh"
#include "ir/builder.hh"
#include "simt/fermi_core.hh"

namespace vgiw
{
namespace
{

/** A compute chain kernel: out[tid] = chain of dependent adds. */
Kernel
chainKernel(int depth)
{
    KernelBuilder kb("chain", 1);
    BlockRef b = kb.block("entry");
    Operand acc = Operand::special(SpecialReg::Tid);
    for (int i = 0; i < depth; ++i)
        acc = b.iadd(acc, Operand::constI32(i + 1));
    b.store(Type::I32,
            b.elemAddr(Operand::param(0),
                       Operand::special(SpecialReg::Tid)),
            acc);
    b.exit();
    return kb.finish();
}

TraceSet
traceChain(const Kernel &k, MemoryImage &mem, int ctas, int cta_size)
{
    uint32_t out = mem.allocWords(uint32_t(ctas * cta_size));
    LaunchParams lp;
    lp.numCtas = ctas;
    lp.ctaSize = cta_size;
    lp.params = {Scalar::fromU32(out)};
    return Interpreter{}.run(k, lp, mem);
}

TEST(FermiResidency, SingleWarpExposesAluLatency)
{
    Kernel k = chainKernel(16);
    MemoryImage mem;
    TraceSet traces = traceChain(k, mem, 1, 32);  // one warp
    FermiConfig cfg;
    RunStats rs = FermiCore(cfg).run(traces);
    // One warp cannot hide the dependency latency: ~depth x latency.
    EXPECT_GT(rs.cycles, 16u * cfg.aluDependencyLatency / 2);
}

TEST(FermiResidency, ManyWarpsHideAluLatency)
{
    Kernel k = chainKernel(16);
    MemoryImage mem1, mem2;
    TraceSet one = traceChain(k, mem1, 1, 32);
    TraceSet many = traceChain(k, mem2, 8, 256);  // 64 warps
    RunStats a = FermiCore{}.run(one);
    RunStats b = FermiCore{}.run(many);
    // 64x the work for much less than 64x the cycles.
    EXPECT_LT(b.cycles, a.cycles * 16);
}

TEST(FermiResidency, CtaLimitThrottlesThroughput)
{
    Kernel k = chainKernel(16);
    FermiConfig wide;
    FermiConfig narrow;
    narrow.maxResidentCtas = 1;

    MemoryImage mem;
    TraceSet traces = traceChain(k, mem, 8, 64);  // 8 CTAs, 2 warps each
    RunStats a = FermiCore(wide).run(traces);
    RunStats b = FermiCore(narrow).run(traces);
    EXPECT_GT(b.cycles, a.cycles);
    // Same work either way.
    EXPECT_EQ(a.dynWarpInstrs, b.dynWarpInstrs);
}

TEST(FermiResidency, PartialWarpStillExecutes)
{
    Kernel k = chainKernel(4);
    MemoryImage mem;
    TraceSet traces = traceChain(k, mem, 1, 20);  // 20 of 32 lanes
    RunStats rs = FermiCore{}.run(traces);
    EXPECT_EQ(rs.dynBlockExecs, 20u);
    // One warp-instruction stream regardless of lane count.
    EXPECT_EQ(rs.dynWarpInstrs, uint64_t(4 + 2 + 1));  // adds+addr+store
}

TEST(FermiResidency, ScuOpsOccupyTheIssuePortLonger)
{
    // sqrt-heavy kernel vs add-heavy kernel with equal op counts: the
    // SFU path must cost more cycles.
    auto build = [](bool scu) {
        KernelBuilder kb("k", 1);
        BlockRef b = kb.block("entry");
        Operand acc = b.u2f(Operand::special(SpecialReg::Tid));
        for (int i = 0; i < 8; ++i)
            acc = scu ? b.fsqrt(acc)
                      : b.fadd(acc, Operand::constF32(1.0f));
        b.store(Type::F32,
                b.elemAddr(Operand::param(0),
                           Operand::special(SpecialReg::Tid)),
                acc);
        b.exit();
        return kb.finish();
    };
    MemoryImage m1, m2;
    Kernel ka = build(false), ks = build(true);
    TraceSet ta = traceChain(ka, m1, 4, 256);
    TraceSet ts = traceChain(ks, m2, 4, 256);
    RunStats a = FermiCore{}.run(ta);
    RunStats s = FermiCore{}.run(ts);
    EXPECT_GT(s.cycles, a.cycles);
}

} // namespace
} // namespace vgiw
