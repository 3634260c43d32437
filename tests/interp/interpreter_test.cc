#include <gtest/gtest.h>

#include <cmath>

#include "helpers/test_kernels.hh"
#include "interp/interpreter.hh"

namespace vgiw
{
namespace
{

/** Run a one-block kernel computing `op(a, b)` and return the result. */
Scalar
evalBinary(Opcode op, Type t, Scalar a, Scalar b)
{
    KernelBuilder kb("unit", 3);
    BlockRef blk = kb.block("entry");
    Operand r = blk.op(op, t, Operand::param(1), Operand::param(2));
    blk.store(Type::U32, Operand::param(0), r);
    blk.exit();
    Kernel k = kb.finish();

    MemoryImage mem;
    uint32_t out = mem.allocWords(1);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 1;
    lp.params = {Scalar::fromU32(out), a, b};
    Interpreter{}.run(k, lp, mem);
    return Scalar(mem.loadWord(out));
}

Scalar
evalUnary(Opcode op, Type t, Scalar a)
{
    KernelBuilder kb("unit", 2);
    BlockRef blk = kb.block("entry");
    Operand r = blk.op(op, t, Operand::param(1));
    blk.store(Type::U32, Operand::param(0), r);
    blk.exit();
    Kernel k = kb.finish();

    MemoryImage mem;
    uint32_t out = mem.allocWords(1);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 1;
    lp.params = {Scalar::fromU32(out), a};
    Interpreter{}.run(k, lp, mem);
    return Scalar(mem.loadWord(out));
}

TEST(InterpOps, IntegerArithmetic)
{
    auto I = [](int32_t v) { return Scalar::fromI32(v); };
    EXPECT_EQ(evalBinary(Opcode::Add, Type::I32, I(3), I(4)).asI32(), 7);
    EXPECT_EQ(evalBinary(Opcode::Sub, Type::I32, I(3), I(5)).asI32(), -2);
    EXPECT_EQ(evalBinary(Opcode::Mul, Type::I32, I(-3), I(4)).asI32(), -12);
    EXPECT_EQ(evalBinary(Opcode::Min, Type::I32, I(-3), I(4)).asI32(), -3);
    EXPECT_EQ(evalBinary(Opcode::Max, Type::I32, I(-3), I(4)).asI32(), 4);
    EXPECT_EQ(evalBinary(Opcode::Div, Type::I32, I(7), I(2)).asI32(), 3);
    EXPECT_EQ(evalBinary(Opcode::Rem, Type::I32, I(7), I(2)).asI32(), 1);
    // Division by zero is defined as 0 (no UB in the model).
    EXPECT_EQ(evalBinary(Opcode::Div, Type::I32, I(7), I(0)).asI32(), 0);
    EXPECT_EQ(evalBinary(Opcode::Rem, Type::I32, I(7), I(0)).asI32(), 0);
}

TEST(InterpOps, UnsignedVsSignedSemantics)
{
    auto I = [](int32_t v) { return Scalar::fromI32(v); };
    // -1 < 1 signed, but 0xffffffff > 1 unsigned.
    EXPECT_EQ(evalBinary(Opcode::CmpLt, Type::I32, I(-1), I(1)).asU32(), 1u);
    EXPECT_EQ(evalBinary(Opcode::CmpLt, Type::U32, I(-1), I(1)).asU32(), 0u);
    // Arithmetic vs logical shift right.
    EXPECT_EQ(evalBinary(Opcode::Shr, Type::I32, I(-8), I(1)).asI32(), -4);
    EXPECT_EQ(evalBinary(Opcode::Shr, Type::U32, I(-8), I(1)).asU32(),
              0x7ffffffcu);
}

TEST(InterpOps, Bitwise)
{
    auto U = [](uint32_t v) { return Scalar::fromU32(v); };
    EXPECT_EQ(evalBinary(Opcode::And, Type::U32, U(0b1100), U(0b1010)).asU32(),
              0b1000u);
    EXPECT_EQ(evalBinary(Opcode::Or, Type::U32, U(0b1100), U(0b1010)).asU32(),
              0b1110u);
    EXPECT_EQ(evalBinary(Opcode::Xor, Type::U32, U(0b1100), U(0b1010)).asU32(),
              0b0110u);
    EXPECT_EQ(evalUnary(Opcode::Not, Type::U32, U(0)).asU32(), 0xffffffffu);
    EXPECT_EQ(evalBinary(Opcode::Shl, Type::U32, U(1), U(5)).asU32(), 32u);
}

TEST(InterpOps, FloatArithmetic)
{
    auto F = [](float v) { return Scalar::fromF32(v); };
    EXPECT_FLOAT_EQ(
        evalBinary(Opcode::Add, Type::F32, F(1.5f), F(2.25f)).asF32(), 3.75f);
    EXPECT_FLOAT_EQ(
        evalBinary(Opcode::Mul, Type::F32, F(3.0f), F(-2.0f)).asF32(), -6.0f);
    EXPECT_FLOAT_EQ(
        evalBinary(Opcode::Div, Type::F32, F(1.0f), F(4.0f)).asF32(), 0.25f);
    EXPECT_FLOAT_EQ(evalUnary(Opcode::Sqrt, Type::F32, F(9.0f)).asF32(), 3.0f);
    EXPECT_FLOAT_EQ(evalUnary(Opcode::Rsqrt, Type::F32, F(4.0f)).asF32(),
                    0.5f);
    EXPECT_FLOAT_EQ(evalUnary(Opcode::Exp, Type::F32, F(0.0f)).asF32(), 1.0f);
    EXPECT_FLOAT_EQ(evalUnary(Opcode::Log, Type::F32, F(1.0f)).asF32(), 0.0f);
    EXPECT_NEAR(evalUnary(Opcode::Sin, Type::F32, F(0.5f)).asF32(),
                std::sin(0.5f), 1e-6f);
    EXPECT_NEAR(evalUnary(Opcode::Cos, Type::F32, F(0.5f)).asF32(),
                std::cos(0.5f), 1e-6f);
    EXPECT_FLOAT_EQ(evalUnary(Opcode::Abs, Type::F32, F(-2.5f)).asF32(), 2.5f);
    EXPECT_FLOAT_EQ(evalUnary(Opcode::Neg, Type::F32, F(2.5f)).asF32(), -2.5f);
}

TEST(InterpOps, Conversions)
{
    auto F = [](float v) { return Scalar::fromF32(v); };
    EXPECT_FLOAT_EQ(
        evalUnary(Opcode::I2F, Type::F32, Scalar::fromI32(-7)).asF32(), -7.f);
    EXPECT_FLOAT_EQ(
        evalUnary(Opcode::U2F, Type::F32, Scalar::fromU32(7)).asF32(), 7.f);
    EXPECT_EQ(evalUnary(Opcode::F2I, Type::I32, F(-7.9f)).asI32(), -7);
    EXPECT_EQ(evalUnary(Opcode::F2U, Type::U32, F(7.9f)).asU32(), 7u);
}

TEST(InterpOps, Select)
{
    KernelBuilder kb("sel", 4);
    BlockRef blk = kb.block("entry");
    Operand r = blk.select(Type::I32, Operand::param(1), Operand::param(2),
                           Operand::param(3));
    blk.store(Type::U32, Operand::param(0), r);
    blk.exit();
    Kernel k = kb.finish();

    for (int cond = 0; cond < 2; ++cond) {
        MemoryImage mem;
        uint32_t out = mem.allocWords(1);
        LaunchParams lp;
        lp.numCtas = 1;
        lp.ctaSize = 1;
        lp.params = {Scalar::fromU32(out), Scalar::fromI32(cond),
                     Scalar::fromI32(111), Scalar::fromI32(222)};
        Interpreter{}.run(k, lp, mem);
        EXPECT_EQ(Scalar(mem.loadWord(out)).asI32(), cond ? 111 : 222);
    }
}

TEST(InterpOps, OperandSourcesAndLiveOutOrder)
{
    // Every operand source in one kernel: the six special registers, a
    // param and a constant, stored per thread; then a block whose
    // live-outs "swap" lv0 and lv1 and whose branch reads lv0. Live-outs
    // are written in list order, so the second reads the first's new
    // value (both end as the old lv1), and the branch condition is read
    // after all of them (it sees the new lv0, which is nonzero).
    constexpr int kSlots = 10;
    KernelBuilder kb("sources", 2);
    const uint16_t lv0 = kb.newLiveValue();
    const uint16_t lv1 = kb.newLiveValue();
    BlockRef entry = kb.block("entry");
    BlockRef swap = kb.block("swap");
    BlockRef taken = kb.block("taken");
    BlockRef fallthrough = kb.block("fallthrough");

    const Operand tid = Operand::special(SpecialReg::Tid);
    auto slot_addr = [&](BlockRef &b, int slot) {
        Operand base = b.imul(tid, Operand::constI32(kSlots));
        return b.elemAddr(Operand::param(0),
                          b.iadd(base, Operand::constI32(slot)));
    };
    const SpecialReg specials[] = {
        SpecialReg::Tid,     SpecialReg::TidInCta, SpecialReg::CtaId,
        SpecialReg::CtaSize, SpecialReg::NumCtas,  SpecialReg::NumThreads};
    for (int s = 0; s < 6; ++s) {
        entry.store(Type::U32, slot_addr(entry, s),
                    Operand::special(specials[s]));
    }
    entry.store(Type::U32, slot_addr(entry, 6), Operand::param(1));
    entry.store(Type::U32, slot_addr(entry, 7),
                Operand::constU32(0xc0ffee));
    entry.out(lv0, Operand::constU32(0));
    entry.out(lv1, Operand::param(1));
    entry.jump(swap);

    swap.out(lv0, swap.in(lv1));
    swap.out(lv1, swap.in(lv0));
    swap.branch(swap.in(lv0), taken, fallthrough);

    taken.store(Type::U32, slot_addr(taken, 8), taken.in(lv0));
    taken.store(Type::U32, slot_addr(taken, 9), taken.in(lv1));
    taken.exit();
    fallthrough.store(Type::U32, slot_addr(fallthrough, 8),
                      Operand::constU32(0xbad));
    fallthrough.exit();
    Kernel k = kb.finish();

    const int ctas = 2, cta_size = 3, n = ctas * cta_size;
    MemoryImage mem;
    const uint32_t out = mem.allocWords(n * kSlots);
    LaunchParams lp;
    lp.numCtas = ctas;
    lp.ctaSize = cta_size;
    lp.params = {Scalar::fromU32(out), Scalar::fromU32(77)};
    Interpreter{}.run(k, lp, mem);

    for (int t = 0; t < n; ++t) {
        auto at = [&](int s) { return mem.loadU32(out, t * kSlots + s); };
        EXPECT_EQ(at(0), uint32_t(t)) << "tid, thread " << t;
        EXPECT_EQ(at(1), uint32_t(t % cta_size)) << "thread " << t;
        EXPECT_EQ(at(2), uint32_t(t / cta_size)) << "thread " << t;
        EXPECT_EQ(at(3), uint32_t(cta_size)) << "thread " << t;
        EXPECT_EQ(at(4), uint32_t(ctas)) << "thread " << t;
        EXPECT_EQ(at(5), uint32_t(n)) << "thread " << t;
        EXPECT_EQ(at(6), 77u) << "param, thread " << t;
        EXPECT_EQ(at(7), 0xc0ffeeu) << "constant, thread " << t;
        EXPECT_EQ(at(8), 77u) << "lv0 after the swap, thread " << t;
        EXPECT_EQ(at(9), 77u) << "lv1 after the swap, thread " << t;
    }
}

TEST(Interpreter, Fig1DivergentPathsComputeCorrectly)
{
    Kernel k = testing::makeFig1Kernel();
    MemoryImage mem;
    const int n = 8;
    uint32_t in = mem.allocWords(n);
    uint32_t out = mem.allocWords(n);
    uint32_t out2 = mem.allocWords(n);
    // Divergence pattern from the paper: threads {0,2,7}->BB2,
    // {1,6}->BB4, {3,4,5}->BB5.
    const int32_t vals[n] = {1, 0, 3, 2, 2, 2, 3, 1};
    for (int i = 0; i < n; ++i)
        mem.storeI32(in, i, vals[i] & 1 ? vals[i] : (vals[i] == 0 ? 0 : 2));
    // Rewrite: use the raw vals directly; the branch tests bit 0 then 1.
    const int32_t raw[n] = {1, 2, 1, 0, 0, 0, 2, 1};
    for (int i = 0; i < n; ++i)
        mem.storeI32(in, i, raw[i]);

    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = n;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                 Scalar::fromU32(out2)};
    TraceSet ts = Interpreter{}.run(k, lp, mem);

    for (int i = 0; i < n; ++i) {
        int32_t x = raw[i];
        int32_t expect = x & 1 ? x + 10 : (x & 2 ? x + 100 : x + 1000);
        EXPECT_EQ(mem.loadI32(out, i), expect) << "thread " << i;
        EXPECT_EQ(mem.loadI32(out2, i), x) << "thread " << i;
    }

    // Each thread executed exactly 3 blocks: BB1, one of {BB2, BB3+BB4/5}.
    for (int i = 0; i < n; ++i) {
        const auto execs = ts.decodeThread(uint32_t(i)).execs;
        EXPECT_EQ(execs.front().block, 0u);
        EXPECT_EQ(execs.back().block, 5u);
        EXPECT_EQ(execs.back().succ, -1);
        if (raw[i] & 1)
            EXPECT_EQ(execs.size(), 3u);
        else
            EXPECT_EQ(execs.size(), 4u);
    }
}

TEST(Interpreter, LoopExecutesNTimes)
{
    Kernel k = testing::makeLoopKernel();
    MemoryImage mem;
    const int n_threads = 5, trips = 7;
    uint32_t out = mem.allocWords(n_threads);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = n_threads;
    lp.params = {Scalar::fromU32(out), Scalar::fromI32(trips)};
    TraceSet ts = Interpreter{}.run(k, lp, mem);

    const int32_t series = trips * (trips - 1) / 2;  // sum 0..trips-1
    for (int t = 0; t < n_threads; ++t)
        EXPECT_EQ(mem.loadI32(out, t), series * t) << "thread " << t;

    // Trace shape: entry + (head+body)*trips + head + done.
    for (int t = 0; t < n_threads; ++t)
        EXPECT_EQ(ts.numExecs(uint32_t(t)), uint32_t(2 * trips + 3));
}

TEST(Interpreter, BarrierSharedMemoryReversal)
{
    const int cta = 8, ctas = 3;
    Kernel k = testing::makeBarrierKernel(cta);
    MemoryImage mem;
    uint32_t in = mem.allocWords(cta * ctas);
    uint32_t out = mem.allocWords(cta * ctas);
    for (int i = 0; i < cta * ctas; ++i)
        mem.storeI32(in, i, 1000 + i);

    LaunchParams lp;
    lp.numCtas = ctas;
    lp.ctaSize = cta;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out)};
    Interpreter{}.run(k, lp, mem);

    for (int c = 0; c < ctas; ++c) {
        for (int l = 0; l < cta; ++l) {
            EXPECT_EQ(mem.loadI32(out, c * cta + l),
                      1000 + c * cta + (cta - 1 - l));
        }
    }
}

TEST(Interpreter, TracesRecordMemoryAccesses)
{
    Kernel k = testing::makeFig1Kernel();
    MemoryImage mem;
    uint32_t in = mem.allocWords(8);
    uint32_t out = mem.allocWords(8);
    uint32_t out2 = mem.allocWords(8);
    LaunchParams lp;
    lp.numCtas = 1;
    lp.ctaSize = 8;
    lp.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                 Scalar::fromU32(out2)};
    TraceSet ts = Interpreter{}.run(k, lp, mem);

    // Every thread: 1 load in BB1, 1 store in BB2/4/5, 1 store in BB6.
    for (int t = 0; t < 8; ++t) {
        const ThreadTrace tr = ts.decodeThread(uint32_t(t));
        ASSERT_EQ(tr.accesses.size(), 3u);
        EXPECT_FALSE(tr.accesses[0].isStore);
        EXPECT_EQ(tr.accesses[0].addr, in + 4u * t);
        EXPECT_TRUE(tr.accesses[1].isStore);
        EXPECT_TRUE(tr.accesses[2].isStore);
        EXPECT_EQ(tr.accesses[2].addr, out2 + 4u * t);
    }
    EXPECT_EQ(ts.totalAccesses(), 24u);
}

TEST(Interpreter, ParamCountMismatchPanics)
{
    Kernel k = testing::makeLoopKernel();
    MemoryImage mem;
    LaunchParams lp;
    lp.params = {Scalar::fromU32(0)};  // needs 2
    EXPECT_DEATH(Interpreter{}.run(k, lp, mem), "expects");
}

} // namespace
} // namespace vgiw
