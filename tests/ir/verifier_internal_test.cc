/**
 * @file
 * Verifier tests on hand-constructed (builder-bypassing) kernels: the
 * structural checks that a well-behaved builder can never trigger.
 */

#include <gtest/gtest.h>

#include "interp/interpreter.hh"
#include "ir/verifier.hh"

namespace vgiw
{
namespace
{

Kernel
skeleton()
{
    Kernel k;
    k.name = "hand";
    k.numParams = 1;
    k.numLiveValues = 1;
    k.blocks.emplace_back();
    k.blocks[0].name = "entry";
    k.blocks[0].term.kind = TermKind::Exit;
    return k;
}

TEST(VerifierInternal, AcceptsMinimalKernel)
{
    Kernel k = skeleton();
    EXPECT_NO_THROW(verifyKernel(k));
}

TEST(VerifierInternal, RejectsBranchTargetOutOfRange)
{
    Kernel k = skeleton();
    k.blocks[0].term.kind = TermKind::Jump;
    k.blocks[0].term.target[0] = 5;
    EXPECT_THROW(verifyKernel(k), std::runtime_error);
}

TEST(VerifierInternal, RejectsMissingOperand)
{
    Kernel k = skeleton();
    Instr add;
    add.op = Opcode::Add;
    add.src = {Operand::constI32(1), Operand{}, Operand{}};  // arity 2
    k.blocks[0].instrs.push_back(add);
    EXPECT_THROW(verifyKernel(k), std::runtime_error);
}

TEST(VerifierInternal, RejectsExcessOperand)
{
    Kernel k = skeleton();
    Instr neg;
    neg.op = Opcode::Neg;  // arity 1
    neg.src = {Operand::constI32(1), Operand::constI32(2), Operand{}};
    k.blocks[0].instrs.push_back(neg);
    EXPECT_THROW(verifyKernel(k), std::runtime_error);
}

TEST(VerifierInternal, RejectsForwardLocalReference)
{
    Kernel k = skeleton();
    Instr a;
    a.op = Opcode::Add;
    a.src = {Operand::local(1), Operand::constI32(1), Operand{}};
    Instr b;
    b.op = Opcode::Add;
    b.src = {Operand::constI32(1), Operand::constI32(2), Operand{}};
    k.blocks[0].instrs = {a, b};  // %0 reads %1: not strictly earlier
    EXPECT_THROW(verifyKernel(k), std::runtime_error);
}

TEST(VerifierInternal, RejectsSelfLocalReference)
{
    Kernel k = skeleton();
    Instr a;
    a.op = Opcode::Add;
    a.src = {Operand::local(0), Operand::constI32(1), Operand{}};
    k.blocks[0].instrs = {a};
    EXPECT_THROW(verifyKernel(k), std::runtime_error);
}

TEST(VerifierInternal, RejectsOutOfRangeParam)
{
    Kernel k = skeleton();
    Instr a;
    a.op = Opcode::Not;
    a.src = {Operand::param(3), Operand{}, Operand{}};  // only 1 param
    k.blocks[0].instrs = {a};
    EXPECT_THROW(verifyKernel(k), std::runtime_error);
}

TEST(VerifierInternal, RejectsOutOfRangeLiveValueId)
{
    Kernel k = skeleton();
    k.blocks[0].liveOuts.push_back(
        LiveOut{7, Operand::constI32(0)});  // only lvid 0 declared
    EXPECT_THROW(verifyKernel(k), std::runtime_error);
}

TEST(VerifierInternal, RejectsBranchWithoutCondition)
{
    Kernel k = skeleton();
    k.blocks.emplace_back();
    k.blocks[1].name = "other";
    k.blocks[1].term.kind = TermKind::Exit;
    k.blocks[0].term.kind = TermKind::Branch;
    k.blocks[0].term.target[0] = 1;
    k.blocks[0].term.target[1] = 1;
    k.blocks[0].term.cond = Operand{};  // None
    EXPECT_THROW(verifyKernel(k), std::runtime_error);
}

/** @p n blocks, each jumping to the next; the last one exits. */
Kernel
jumpChain(int n)
{
    Kernel k;
    k.name = "chain";
    k.blocks.resize(size_t(n));
    for (int b = 0; b < n; ++b) {
        k.blocks[b].name = "b" + std::to_string(b);
        k.blocks[b].term.kind = b + 1 < n ? TermKind::Jump : TermKind::Exit;
        k.blocks[b].term.target[0] = b + 1 < n ? b + 1 : -1;
    }
    return k;
}

TEST(VerifierInternal, LargestTraceableChainRunsToItsExit)
{
    // Traces hold successors as signed 16-bit ids: with 32,768 blocks
    // the last jump, to block 32,767, still decodes as itself.
    const Kernel k = jumpChain(Kernel::kMaxBlocks);
    ASSERT_NO_THROW(verifyKernel(k));
    LaunchParams launch;
    launch.numCtas = 1;
    launch.ctaSize = 1;
    MemoryImage mem;
    const TraceSet ts = Interpreter{}.run(k, launch, mem);
    ASSERT_EQ(ts.numExecs(0), uint32_t(Kernel::kMaxBlocks));
    int want = 0;
    for (ThreadCursor c = ts.thread(0); !c.done(); c.nextExec(), ++want) {
        ASSERT_EQ(c.block(), want);
        ASSERT_EQ(c.succ(), want + 1 < Kernel::kMaxBlocks ? want + 1 : -1);
    }
    EXPECT_EQ(want, Kernel::kMaxBlocks);
}

TEST(VerifierInternal, RejectsMoreBlocksThanATraceHolds)
{
    // One more block and block 32,767's successor, 32,768, would wrap
    // to -32,768, which replay reads as a thread exit.
    const Kernel k = jumpChain(Kernel::kMaxBlocks + 1);
    try {
        verifyKernel(k);
        FAIL() << "a 32,769-block kernel verified";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("'chain'"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("32768"), std::string::npos)
            << e.what();
    }
}

TEST(VerifierInternal, RejectsEmptyKernel)
{
    Kernel k;
    k.name = "empty";
    EXPECT_THROW(verifyKernel(k), std::runtime_error);
}

} // namespace
} // namespace vgiw
