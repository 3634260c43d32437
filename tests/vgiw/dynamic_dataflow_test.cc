/**
 * @file
 * Inter-thread dynamic dataflow (Section 3.5): the LDST reservation
 * buffers let unblocked threads overtake memory-stalled ones, which the
 * model captures as the outstanding-miss window. Shrinking the window
 * must expose miss latency; growing it must hide it.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "interp/interpreter.hh"
#include "ir/builder.hh"
#include "vgiw/vgiw_core.hh"

namespace vgiw
{
namespace
{

/** A pointer-chase-flavoured kernel: every load misses a cold cache.
 * The kernel is static because TraceSet keeps a pointer to it. */
TraceSet
missHeavyTraces(MemoryImage &mem)
{
    static const Kernel k = [] {
        KernelBuilder kb("gather", 3);
        BlockRef b = kb.block("entry");
        Operand tid = Operand::special(SpecialReg::Tid);
        Operand idx =
            b.load(Type::I32, b.elemAddr(Operand::param(0), tid));
        Operand v = b.load(Type::I32, b.elemAddr(Operand::param(1), idx));
        b.store(Type::I32, b.elemAddr(Operand::param(2), tid), v);
        b.exit();
        return kb.finish();
    }();

    const int n = 2048, table = 1 << 16;
    const uint32_t ind = mem.allocWords(n);
    const uint32_t data = mem.allocWords(table);
    const uint32_t out = mem.allocWords(n);
    Rng rng(5);
    for (int i = 0; i < n; ++i)
        mem.storeI32(ind, uint32_t(i), int32_t(rng.nextUInt(table)));

    LaunchParams lp;
    lp.numCtas = n / 256;
    lp.ctaSize = 256;
    lp.params = {Scalar::fromU32(ind), Scalar::fromU32(data),
                 Scalar::fromU32(out)};
    return Interpreter{}.run(k, lp, mem);
}

TEST(DynamicDataflow, LargerMissWindowHidesLatency)
{
    MemoryImage mem;
    TraceSet traces = missHeavyTraces(mem);

    VgiwConfig narrow, wide;
    narrow.missWindow = 8;    // almost in-order memory
    wide.missWindow = 1024;   // deep reservation buffers
    RunStats a = VgiwCore(narrow).run(traces);
    RunStats b = VgiwCore(wide).run(traces);
    EXPECT_GT(a.cycles, 2 * b.cycles);
    // Same work and traffic either way.
    EXPECT_EQ(a.dynBlockExecs, b.dynBlockExecs);
    EXPECT_EQ(a.l1Stats.accesses(), b.l1Stats.accesses());
}

TEST(DynamicDataflow, GatherHurtsMoreThanStreaming)
{
    // The same window sensitivity, but relative: the scattered gather
    // kernel's narrow/wide ratio must exceed a streaming kernel's
    // (whose misses are only the compulsory line touches).
    static const Kernel k = [] {
        KernelBuilder kb("stream", 2);
        BlockRef b = kb.block("entry");
        Operand tid = Operand::special(SpecialReg::Tid);
        Operand v = b.load(Type::I32, b.elemAddr(Operand::param(0), tid));
        b.store(Type::I32, b.elemAddr(Operand::param(1), tid),
                b.iadd(v, Operand::constI32(1)));
        b.exit();
        return kb.finish();
    }();

    MemoryImage mem;
    const int n = 2048;
    uint32_t in = mem.allocWords(n), out = mem.allocWords(n);
    LaunchParams lp;
    lp.numCtas = n / 256;
    lp.ctaSize = 256;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
    TraceSet stream = Interpreter{}.run(k, lp, mem);

    MemoryImage gmem;
    TraceSet gather = missHeavyTraces(gmem);

    VgiwConfig narrow, wide;
    narrow.missWindow = 8;
    wide.missWindow = 1024;
    const double stream_ratio =
        double(VgiwCore(narrow).run(stream).cycles) /
        double(VgiwCore(wide).run(stream).cycles);
    const double gather_ratio =
        double(VgiwCore(narrow).run(gather).cycles) /
        double(VgiwCore(wide).run(gather).cycles);
    EXPECT_GT(gather_ratio, stream_ratio);
}

} // namespace
} // namespace vgiw
