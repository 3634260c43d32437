#include <gtest/gtest.h>

#include "helpers/test_kernels.hh"
#include "interp/interpreter.hh"
#include "simt/fermi_core.hh"

namespace vgiw
{
namespace
{

TraceSet
fig1Traces(MemoryImage &mem, int n = 8)
{
    static Kernel k = testing::makeFig1Kernel();
    uint32_t in = mem.allocWords(n);
    uint32_t out = mem.allocWords(n);
    uint32_t out2 = mem.allocWords(n);
    const int32_t pattern[8] = {1, 2, 1, 0, 0, 0, 2, 1};
    for (int i = 0; i < n; ++i)
        mem.storeI32(in, i, pattern[i % 8]);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = n;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                 Scalar::fromU32(out2)};
    return Interpreter{}.run(k, lp, mem);
}

TEST(FermiCore, ConsumesAllWork)
{
    MemoryImage mem;
    TraceSet traces = fig1Traces(mem);
    RunStats rs = FermiCore{}.run(traces);
    EXPECT_EQ(rs.dynBlockExecs, traces.totalBlockExecs());
    EXPECT_GT(rs.cycles, 0u);
    EXPECT_GT(rs.dynWarpInstrs, 0u);
}

TEST(FermiCore, DivergencePaysForBothPaths)
{
    // A single warp executing the Fig. 1a divergence pattern issues the
    // instructions of BB2, BB3, BB4 and BB5 serially (Fig. 1b), so it
    // must issue more warp instructions than a uniform warp that takes
    // only BB2.
    Kernel k = testing::makeFig1Kernel();

    auto run_with = [&k](std::vector<int32_t> inputs) {
        MemoryImage mem;
        int n = int(inputs.size());
        uint32_t in = mem.allocWords(n);
        uint32_t out = mem.allocWords(n);
        uint32_t out2 = mem.allocWords(n);
        for (int i = 0; i < n; ++i)
            mem.storeI32(in, i, inputs[i]);
        LaunchParams lp;
        lp.numCtas = 1;
        lp.ctaSize = n;
        lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                     Scalar::fromU32(out2)};
        TraceSet t = Interpreter{}.run(k, lp, mem);
        return FermiCore{}.run(t);
    };

    RunStats uniform = run_with(std::vector<int32_t>(32, 1));
    RunStats divergent = run_with(
        {1, 2, 1, 0, 0, 0, 2, 1, 1, 2, 1, 0, 0, 0, 2, 1,
         1, 2, 1, 0, 0, 0, 2, 1, 1, 2, 1, 0, 0, 0, 2, 1});
    EXPECT_GT(divergent.dynWarpInstrs, uniform.dynWarpInstrs);
    EXPECT_GT(divergent.cycles, uniform.cycles);
    // But the per-thread work is comparable (each thread runs 3-4
    // blocks); the extra warp instructions are the divergence tax.
    EXPECT_EQ(uniform.dynBlockExecs, 32u * 3u);
}

TEST(FermiCore, RfAccessesCountedPerWarpOperand)
{
    // One warp, one block: out[tid] = a[tid] + b[tid].
    KernelBuilder kb("axpy1", 3);
    BlockRef blk = kb.block("entry");
    Operand tid = Operand::special(SpecialReg::Tid);
    Operand va = blk.load(Type::I32, blk.elemAddr(Operand::param(0), tid));
    Operand vb = blk.load(Type::I32, blk.elemAddr(Operand::param(1), tid));
    Operand s = blk.iadd(va, vb);
    blk.store(Type::I32, blk.elemAddr(Operand::param(2), tid), s);
    blk.exit();
    Kernel k = kb.finish();

    MemoryImage mem;
    uint32_t a = mem.allocWords(32), b = mem.allocWords(32),
             c = mem.allocWords(32);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 32;
    lp.params = {Scalar::fromU32(a), Scalar::fromU32(b),
                 Scalar::fromU32(c)};
    TraceSet traces = Interpreter{}.run(k, lp, mem);
    RunStats rs = FermiCore{}.run(traces);

    // Instructions: 3 address chains of (shl, add) + 2 loads + 1 add +
    // 1 store = 10 warp instructions.
    EXPECT_EQ(rs.dynWarpInstrs, 10u);
    // RF accesses, counting a single access per warp operand: specials
    // and immediates are free; every Local/LiveIn read costs one access
    // and every value-producing instruction one write.
    //   load chain (shl: 0r+1w, add: 1r+1w, ld: 1r+1w) = 5, twice = 10
    //   iadd(va, vb): 2r+1w = 3
    //   store chain (shl: 1, add: 2, st: 2r+0w) = 5
    EXPECT_EQ(rs.rfAccesses, 18u);
}

TEST(FermiCore, CoalescedWarpIssuesOneTransaction)
{
    // Consecutive tids load consecutive words: one 128 B transaction.
    KernelBuilder kb("coal", 2);
    BlockRef blk = kb.block("entry");
    Operand tid = Operand::special(SpecialReg::Tid);
    Operand v = blk.load(Type::I32, blk.elemAddr(Operand::param(0), tid));
    blk.store(Type::I32, blk.elemAddr(Operand::param(1), tid), v);
    blk.exit();
    Kernel k = kb.finish();

    MemoryImage mem;
    uint32_t a = mem.allocWords(32), b = mem.allocWords(32);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 32;
    lp.params = {Scalar::fromU32(a), Scalar::fromU32(b)};
    TraceSet traces = Interpreter{}.run(k, lp, mem);
    RunStats rs = FermiCore{}.run(traces);
    // 1 load transaction + 1 store transaction.
    EXPECT_EQ(rs.l1Stats.accesses(), 2u);
}

TEST(FermiCore, StridedWarpIssues32Transactions)
{
    // Stride-32 loads touch 32 distinct lines: no coalescing possible.
    KernelBuilder kb("strided", 2);
    BlockRef blk = kb.block("entry");
    Operand tid = Operand::special(SpecialReg::Tid);
    Operand idx = blk.imul(tid, Operand::constI32(32));
    Operand v = blk.load(Type::I32, blk.elemAddr(Operand::param(0), idx));
    blk.store(Type::I32, blk.elemAddr(Operand::param(1), tid), v);
    blk.exit();
    Kernel k = kb.finish();

    MemoryImage mem;
    uint32_t a = mem.allocWords(32 * 32), b = mem.allocWords(32);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 32;
    lp.params = {Scalar::fromU32(a), Scalar::fromU32(b)};
    TraceSet traces = Interpreter{}.run(k, lp, mem);
    RunStats rs = FermiCore{}.run(traces);
    // 32 load transactions + 1 store transaction.
    EXPECT_EQ(rs.l1Stats.accesses(), 33u);
}

TEST(FermiCore, MultipleWarpsHideMemoryLatency)
{
    // With many warps the SM overlaps load latency; cycles should grow
    // far slower than linearly in the warp count.
    KernelBuilder kb("stream", 2);
    BlockRef blk = kb.block("entry");
    Operand tid = Operand::special(SpecialReg::Tid);
    Operand v = blk.load(Type::I32, blk.elemAddr(Operand::param(0), tid));
    Operand w = blk.iadd(v, Operand::constI32(1));
    blk.store(Type::I32, blk.elemAddr(Operand::param(1), tid), w);
    blk.exit();
    Kernel k = kb.finish();

    auto cycles_for = [&k](int threads) {
        MemoryImage mem;
        uint32_t a = mem.allocWords(uint32_t(threads));
        uint32_t b = mem.allocWords(uint32_t(threads));
        LaunchParams lp;
        lp.numCtas = threads / 256;
        lp.ctaSize = 256;
        lp.params = {Scalar::fromU32(a), Scalar::fromU32(b)};
        TraceSet t = Interpreter{}.run(k, lp, mem);
        return FermiCore{}.run(t).cycles;
    };

    uint64_t one = cycles_for(256);
    uint64_t eight = cycles_for(2048);
    EXPECT_LT(eight, one * 8);
}

TEST(FermiCore, BarrierSynchronisesWarpsOfACta)
{
    const int cta = 64, ctas = 2;  // 2 warps per CTA
    Kernel k = testing::makeBarrierKernel(cta);
    MemoryImage mem;
    uint32_t in = mem.allocWords(cta * ctas), out = mem.allocWords(cta * ctas);
    for (int i = 0; i < cta * ctas; ++i)
        mem.storeI32(in, i, i);
    LaunchParams lp;
    lp.numCtas = ctas;
    lp.ctaSize = cta;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
    TraceSet traces = Interpreter{}.run(k, lp, mem);
    RunStats rs = FermiCore{}.run(traces);
    EXPECT_EQ(rs.dynBlockExecs, traces.totalBlockExecs());
}

TEST(FermiCore, FrontendAndRfEnergyAreSignificant)
{
    // The paper's motivation: pipeline + RF ~= 30% of GPGPU power.
    MemoryImage mem;
    TraceSet traces = fig1Traces(mem);
    RunStats rs = FermiCore{}.run(traces);
    const double fe = rs.energy.get(EnergyComponent::Frontend) +
                      rs.energy.get(EnergyComponent::RegisterFile);
    EXPECT_GT(fe / rs.energy.corePj(), 0.2);
    // And no dataflow structures on a von Neumann machine.
    EXPECT_EQ(rs.energy.get(EnergyComponent::TokenFabric), 0.0);
    EXPECT_EQ(rs.energy.get(EnergyComponent::Lvc), 0.0);
}

} // namespace
} // namespace vgiw
