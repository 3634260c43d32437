/**
 * @file
 * Failure-injection tests for the functional executor: runaway loops,
 * out-of-range memory, barrier deadlocks and scratchpad overruns must be
 * caught with diagnostics rather than corrupting the simulation.
 */

#include <gtest/gtest.h>

#include "helpers/test_kernels.hh"
#include "interp/interpreter.hh"

namespace vgiw
{
namespace
{

TEST(InterpGuards, RunawayLoopIsCaught)
{
    // while(true) kernel: the dynamic block-execution budget trips.
    KernelBuilder kb("spin", 0);
    BlockRef entry = kb.block("entry");
    BlockRef loop = kb.block("loop");
    entry.jump(loop);
    loop.jump(loop);
    Kernel k = kb.finish();

    MemoryImage mem;
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 1;
    InterpOptions opts;
    opts.maxBlockExecs = 1000;
    EXPECT_THROW(Interpreter(opts).run(k, lp, mem), std::runtime_error);
}

TEST(InterpGuards, OutOfRangeLoadPanics)
{
    KernelBuilder kb("oob", 0);
    BlockRef b = kb.block("entry");
    b.load(Type::I32, Operand::constU32(0x7ffffffc));
    b.exit();
    Kernel k = kb.finish();

    MemoryImage mem;
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 1;
    EXPECT_DEATH(Interpreter{}.run(k, lp, mem), "out of range");
}

TEST(InterpGuards, UnalignedAccessPanics)
{
    KernelBuilder kb("unaligned", 0);
    BlockRef b = kb.block("entry");
    b.load(Type::I32, Operand::constU32(130));
    b.exit();
    Kernel k = kb.finish();

    MemoryImage mem;
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 1;
    EXPECT_DEATH(Interpreter{}.run(k, lp, mem), "unaligned");
}

TEST(InterpGuards, SharedOverrunPanics)
{
    KernelBuilder kb("shared_oob", 0);
    kb.setSharedBytesPerCta(64);
    BlockRef b = kb.block("entry");
    b.store(Type::I32, Operand::constU32(128), Operand::constI32(1),
            MemSpace::Shared);
    b.exit();
    Kernel k = kb.finish();

    MemoryImage mem;
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 1;
    EXPECT_DEATH(Interpreter{}.run(k, lp, mem), "shared store");
}

TEST(InterpGuards, BarrierDeadlockDetected)
{
    // Half the CTA exits before the barrier: the arrivals can never
    // match the live count... actually exits reduce the live count, so
    // build a real deadlock: two groups waiting at *different* barriers.
    KernelBuilder kb("deadlock", 0);
    const uint16_t lv = kb.newLiveValue();
    BlockRef entry = kb.block("entry");
    BlockRef a = kb.block("a");
    BlockRef b = kb.block("b");
    BlockRef a2 = kb.block("a2");
    BlockRef b2 = kb.block("b2");
    Operand lane = Operand::special(SpecialReg::TidInCta);
    entry.out(lv, lane);
    entry.branch(entry.ilt(lane, Operand::constI32(2)), a, b);
    a.jump(a2, /*barrier=*/true);
    b.jump(b2, /*barrier=*/true);
    a2.exit();
    b2.exit();
    Kernel k = kb.finish();

    MemoryImage mem;
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 4;
    EXPECT_THROW(Interpreter{}.run(k, lp, mem), std::runtime_error);
}

TEST(InterpGuards, ExitBeforeBarrierReleasesWaiters)
{
    // Threads 0-1 exit immediately; threads 2-3 hit a barrier. The
    // live count shrinks, so the barrier releases with 2 arrivals
    // (CUDA's semantics for exited threads).
    KernelBuilder kb("early_exit", 1);
    BlockRef entry = kb.block("entry");
    BlockRef work = kb.block("work");
    BlockRef after = kb.block("after");
    BlockRef out = kb.block("out");
    Operand lane = Operand::special(SpecialReg::TidInCta);
    entry.branch(entry.ilt(lane, Operand::constI32(2)), out, work);
    out.exit();
    work.jump(after, /*barrier=*/true);
    after.store(Type::I32,
                after.elemAddr(Operand::param(0), lane),
                Operand::constI32(7));
    after.exit();
    Kernel k = kb.finish();

    MemoryImage mem;
    uint32_t buf = mem.allocWords(8);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 4;
    lp.params = {Scalar::fromU32(buf)};
    EXPECT_NO_THROW(Interpreter{}.run(k, lp, mem));
    EXPECT_EQ(mem.loadI32(buf, 2), 7);
    EXPECT_EQ(mem.loadI32(buf, 3), 7);
}

} // namespace
} // namespace vgiw
