/**
 * @file
 * Inter-warp coalescer corner cases on the Fermi model: broadcast,
 * 2-line-split and fully scattered access patterns.
 */

#include <gtest/gtest.h>

#include "interp/interpreter.hh"
#include "ir/builder.hh"
#include "simt/fermi_core.hh"

namespace vgiw
{
namespace
{

/** out[tid] = data[f(tid)] for an index expression built by @p f. */
template <typename F>
RunStats
runPattern(F &&f, uint32_t data_words)
{
    KernelBuilder kb("pattern", 2);
    BlockRef b = kb.block("entry");
    Operand tid = Operand::special(SpecialReg::Tid);
    Operand idx = f(b, tid);
    Operand v = b.load(Type::I32, b.elemAddr(Operand::param(0), idx));
    b.store(Type::I32, b.elemAddr(Operand::param(1), tid), v);
    b.exit();
    Kernel k = kb.finish();

    MemoryImage mem;
    uint32_t data = mem.allocWords(data_words);
    uint32_t out = mem.allocWords(32);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 32;
    lp.params = {Scalar::fromU32(data), Scalar::fromU32(out)};
    TraceSet traces = Interpreter{}.run(k, lp, mem);
    return FermiCore{}.run(traces);
}

TEST(Coalescer, BroadcastIsOneTransaction)
{
    RunStats rs = runPattern(
        [](BlockRef &b, Operand) {
            (void)b;
            return Operand::constI32(5);
        },
        64);
    // 1 load transaction + 1 store transaction.
    EXPECT_EQ(rs.l1Stats.accesses(), 2u);
}

TEST(Coalescer, MisalignedWarpSplitsIntoTwoTransactions)
{
    // tid + 16 words: the warp's 32 words straddle two 128 B lines.
    RunStats rs = runPattern(
        [](BlockRef &b, Operand tid) {
            return b.iadd(tid, Operand::constI32(16));
        },
        256);
    EXPECT_EQ(rs.l1Stats.accesses(), 3u);  // 2 loads + 1 store
}

TEST(Coalescer, Stride2CoversTwoLines)
{
    RunStats rs = runPattern(
        [](BlockRef &b, Operand tid) {
            return b.imul(tid, Operand::constI32(2));
        },
        256);
    EXPECT_EQ(rs.l1Stats.accesses(), 3u);  // 64 words = 2 lines + store
}

TEST(Coalescer, FullyScatteredIs32Transactions)
{
    RunStats rs = runPattern(
        [](BlockRef &b, Operand tid) {
            return b.imul(tid, Operand::constI32(64));
        },
        32 * 64 + 64);
    EXPECT_EQ(rs.l1Stats.accesses(), 33u);
}

} // namespace
} // namespace vgiw
